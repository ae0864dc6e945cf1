(* Clocks, process facts and file helpers shared by the workloads. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755

(* Resident high-water mark of a process, in MB, from /proc. *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* First line a shell command prints, or [default] when it fails. *)
let command_line ~default cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l when l <> "" -> l
  | _ -> default
