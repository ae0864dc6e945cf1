(** A textual litmus-test format, parser and printer.

    The format is line-oriented:

    {v
    # comments run to end of line
    test MP-relacq
    model relacq            # sc | sc-per-loc | relacq (default sc-per-loc)
    locations x y           # optional; inferred from use otherwise
    thread P0
      store x 1
      fence
      store y 1
    thread P1
      r0 = load y
      fence
      r1 = load x
    target P1:r0 == 1 && P1:r1 == 0
    v}

    Instructions are [store LOC VALUE], [REG = load LOC],
    [REG = exchange LOC VALUE] (an atomic RMW) and [fence]. The target
    condition is a boolean expression over register atoms [Pn:rK == V]
    and final-memory atoms [LOC == V], with [&&], [||], [!] and
    parentheses. Locations are identifiers; the first three conventionally
    print as [x], [y], [z].

    {!to_source} prints any test back into this format (for generated
    tests the derived target is emitted as a disjunction over its outcome
    set), and [parse (to_source t)] accepts for every test in this
    repository — a property the test suite checks. *)

val parse : string -> (Litmus.t, string) result
(** [parse source] parses one test. Errors carry a line number, and a
    thread or location the condition names but the program lacks is an
    error. The target evaluates the condition over thread and location
    indices resolved here; it is false on an outcome whose shape differs
    from the test's ({!Litmus.same_shape}), and an atom naming a
    register the thread never writes is false. *)

val parse_file : string -> (Litmus.t, string) result

val to_source : Litmus.t -> string
(** [to_source t] prints [t] in the surface format. The target condition
    is reconstructed by enumerating [t]'s candidate outcomes and listing
    those satisfying the target — exact for every test whose target
    depends only on observable outcomes (all of them, by construction).
    @raise Invalid_argument if the test is ill-formed. *)
