module Table = Mcm_util.Table
module Prng = Mcm_util.Prng
module Request = Mcm_testenv.Request
module Suite = Mcm_core.Suite
module Mutator = Mcm_core.Mutator
module Litmus = Mcm_litmus.Litmus
module Device = Mcm_gpu.Device
module Profile = Mcm_gpu.Profile
module Bug = Mcm_gpu.Bug
module Params = Mcm_testenv.Params
module Runner = Mcm_testenv.Runner
module Pearson = Mcm_stats.Pearson

let table2 () =
  let t = Table.create [ "Mutator"; "Conformance Tests"; "Mutants" ] in
  let rows = Suite.table2 () in
  List.iter
    (fun (name, conf, mut) ->
      if name = "Combined" then Table.add_rule t;
      Table.add_row t [ name; string_of_int conf; string_of_int mut ])
    rows;
  t

let table3 () =
  let t = Table.create ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Left ]
      [ "Vendor"; "Chip"; "CUs"; "Type" ]
  in
  List.iter
    (fun (vendor, chip, cus, ty) -> Table.add_row t [ vendor; chip; string_of_int cus; ty ])
    (Profile.table3 ());
  t

module Fig5 = struct
  let categories = List.map Tuning.category_name Tuning.all_categories

  (* Rows are the table's devices and their average, columns the four
     categories. *)
  let panel cell t mutator =
    let table = Table.create ("Device" :: categories) in
    let row label device =
      Table.add_row table
        (label :: List.map (fun category -> cell t ~category ~mutator ~device) categories)
    in
    List.iter (fun d -> row d (Some d)) (Results.devices t);
    Table.add_rule table;
    row "All" None;
    table

  let score_cell t ~category ~mutator ~device =
    Table.pct_cell (Results.score t ~category ?mutator ?device ())

  let rate_cell t ~category ~mutator ~device =
    Table.rate_cell (Results.death_rate t ~category ?mutator ?device ())

  let all_tables t =
    let panels mutator (score_title, rate_title) =
      [ (score_title, panel score_cell t mutator); (rate_title, panel rate_cell t mutator) ]
    in
    List.concat_map
      (fun (m, titles) -> panels (Some (Mutator.kind_name m)) titles)
      [
        ( Mutator.Reversing_po_loc,
          ( "(a) reversing po-loc: mutation score",
            "(b) reversing po-loc: mutant death rate (/s)" ) );
        ( Mutator.Weakening_po_loc,
          ( "(c) weakening po-loc: mutation score",
            "(d) weakening po-loc: mutant death rate (/s)" ) );
        ( Mutator.Weakening_sw,
          ("(e) weakening sw: mutation score", "(f) weakening sw: mutant death rate (/s)") );
      ]
    @ panels None
        ("(g) all mutators: mutation score", "(h) all mutators: mutant death rate (/s)")

  let tuning_time t =
    List.map (fun category -> (category, Results.sim_time t ~category)) categories
end

module Fig6 = struct
  let budgets = [ 1. /. 1024.; 1. /. 256.; 1. /. 64.; 1. /. 16.; 1. /. 4.; 1.; 4.; 16.; 64. ]

  let targets = [ 0.95; 0.99999 ]

  let budget_label b = if b >= 1. then Printf.sprintf "%.0f" b else Printf.sprintf "1/%.0f" (1. /. b)

  let table t =
    let series =
      List.concat_map
        (fun c -> List.map (fun target -> (Tuning.category_name c, target)) targets)
        [ Tuning.Site; Tuning.Pte ]
    in
    let label (category, target) = Printf.sprintf "%s@%g%%" category (100. *. target) in
    let table = Table.create ("Budget (s)" :: List.map label series) in
    List.iter
      (fun budget ->
        Table.add_row table
          (budget_label budget
          :: List.map
               (fun (category, target) ->
                 Table.pct_cell (Results.merge_score t ~category ~target ~budget))
               series))
      budgets;
    table
end

module Table4 = struct
  type row = {
    vendor : string;
    failed_test : string;
    mutant_type : string;
    best_mutant : string;
    pcc : float;
    p_value : float;
    n_envs : int;
  }

  (* The three (vendor, conformance test) case studies of Sec. 5.4. *)
  let cases =
    [
      (Profile.intel, "CoRR", "Reversing po-loc");
      (Profile.amd, "MP-relacq", "Weakening sw");
      (Profile.nvidia, "MP-CO", "Weakening po-loc");
    ]

  let compute ?(ctx = Request.serial) ?n_envs ?iterations ?scale ?(seed = 20230325) () =
    let scale = match scale with Some s -> s | None -> Tuning.env_float "MCM_SCALE" 0.02 in
    let n_envs = match n_envs with Some n -> n | None -> if scale >= 1. then 150 else 40 in
    let iterations = match iterations with Some i -> i | None -> if scale >= 1. then 100 else 8 in
    let case_data =
      List.map
        (fun (profile, conf_name, mutant_type) ->
          let device =
            match Bug.paper_bug profile with
            | Some bug -> Device.make ~bugs:[ bug ] profile
            | None -> Device.make profile
          in
          let conf =
            match Suite.find conf_name with
            | Some e -> e.Suite.test
            | None -> failwith ("Table4: unknown test " ^ conf_name)
          in
          let mutants = List.map (fun e -> e.Suite.test) (Suite.mutants_of conf_name) in
          let g = Prng.create (Prng.mix seed (Hashtbl.hash conf_name)) in
          let envs =
            Array.of_list
              (List.init n_envs (fun _ -> Params.scaled (Params.random g Params.Parallel) scale))
          in
          (profile, conf_name, mutant_type, device, conf :: mutants, envs))
        cases
    in
    (* One flat case × (conf :: mutants) × environment grid; each cell's
       seed depends only on its coordinates, so rate vectors are
       identical for any domain count. No sweep key: the case study is
       cheap and shares store directories with tuning sweeps, so it never
       journals. *)
    let cells =
      Array.of_list
        (List.concat_map
           (fun (_, conf_name, _, device, tests, envs) ->
             List.concat_map
               (fun (test : Litmus.t) ->
                 List.init n_envs (fun i ->
                     let seed = Prng.mix seed (Hashtbl.hash (conf_name, test.Litmus.name, i)) in
                     Request.make ~device ~env:envs.(i) ~test ~iterations ~seed ()))
               tests)
           case_data)
    in
    (* Cells are laid out column-major per (case, test): [n_envs]
       consecutive cells share one compiled image and workspace shape,
       so the column index is the natural schema family. *)
    let family i = i / n_envs in
    let results =
      Grid.run ctx
        (Grid.make ~family Runner.Rate ~n:(Array.length cells) ~request:(Array.get cells))
    in
    let off = ref 0 in
    List.map
      (fun (profile, conf_name, mutant_type, _, tests, _) ->
        let rates_of b = Array.init n_envs (fun i -> results.(!off + (b * n_envs) + i).Runner.rate) in
        let conf_rates = rates_of 0 in
        let best, _ =
          List.fold_left
            (fun (acc, b) (mutant : Litmus.t) ->
              let r = Pearson.pcc conf_rates (rates_of b) in
              let r = if Float.is_nan r then -2. else r in
              let acc =
                match acc with
                | Some (_, best_r) when best_r >= r -> acc
                | _ -> Some (mutant.Litmus.name, r)
              in
              (acc, b + 1))
            (None, 1) (List.tl tests)
        in
        off := !off + (List.length tests * n_envs);
        let best_mutant, pcc = match best with Some (n, r) -> (n, r) | None -> ("-", Float.nan) in
        {
          vendor = profile.Profile.short_name;
          failed_test = conf_name;
          mutant_type;
          best_mutant;
          pcc;
          p_value = Pearson.p_value ~r:pcc ~n:n_envs;
          n_envs;
        })
      case_data

  let table rows =
    let t =
      Table.create
        ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Left; Table.Right; Table.Right ]
        [ "Vendor"; "Failed Test"; "Mutant Type"; "Best Mutant"; "PCC"; "p-value" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [
            r.vendor;
            r.failed_test;
            r.mutant_type;
            r.best_mutant;
            Table.float_cell ~decimals:3 r.pcc;
            Printf.sprintf "%.2e" r.p_value;
          ])
      rows;
    t
end
