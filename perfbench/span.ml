(* In-memory spans recorded around calls into the program's public
   functions. A span names the call, links to the span that caused it and
   carries the campaign-cell index its work belongs to (-1 for work that
   belongs to no single cell). Spans stay in memory until [write]. *)

type span = { id : int; parent : int; name : string; cell : int; start : float; stop : float }

type t = { enabled : bool; mutable spans : span list; mutable next : int }

let create ~enabled = { enabled; spans = []; next = 0 }
let no_parent = -1

(* [record t ~parent ~cell name f] runs [f id] inside a span; [id] is the
   new span's identifier, for children. A disabled recorder runs [f]
   with no clock reads at all, which is what the overhead comparison
   measures against. *)
let record t ?(parent = no_parent) ?(cell = -1) name f =
  if not t.enabled then f no_parent
  else begin
    let id = t.next in
    t.next <- id + 1;
    let start = Unix.gettimeofday () in
    let r = f id in
    let stop = Unix.gettimeofday () in
    t.spans <- { id; parent; name; cell; start; stop } :: t.spans;
    r
  end

(* A span timed elsewhere, e.g. by another thread, added afterwards. *)
let add t ?(parent = no_parent) ?(cell = -1) name ~start ~stop =
  if t.enabled then begin
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; parent; name; cell; start; stop } :: t.spans
  end

let spans t = List.rev t.spans

(* Length of the union of [intervals] clipped to [lo, hi]: nested,
   overlapping and adjacent intervals each count once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let rec sweep acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> sweep acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> sweep acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> sweep (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  sweep 0. None (List.sort compare clipped)

(* Self time of every span: its duration minus the part of its interval
   that its direct children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> no_parent then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Summed self time per span name. Root spans (no parent) are phases,
   not layers: their self time is the unattributed remainder. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let key = if s.parent = no_parent then "unattributed" else s.name in
      Hashtbl.replace tbl key (self +. Option.value ~default:0. (Hashtbl.find_opt tbl key)))
    (self_times spans);
  tbl

let total_duration spans name =
  List.fold_left (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc) 0. spans

let to_json s =
  Mcm_util.Jsonw.(
    Obj
      [
        ("id", Int s.id);
        ("parent", Int s.parent);
        ("name", String s.name);
        ("cell", Int s.cell);
        ("start", Float s.start);
        ("end", Float s.stop);
      ])

let write ~path spans =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Mcm_util.Jsonw.to_channel oc (to_json s);
          output_char oc '\n')
        spans)
