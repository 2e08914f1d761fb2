(* Machine-readable benchmark output.

   When [main.exe <cmd> --json FILE] is given, every command merges its
   timings into FILE as one top-level section per command, so

     main.exe micro --json BENCH_PR1.json
     main.exe x4    --json BENCH_PR1.json

   accumulate into a single document.  The schema is flat on purpose —
   section -> name -> {ns_per_run | wall_ms, ...} — so later PRs can
   diff two files and gate on regressions without bespoke tooling. *)

module Json = Cliffedge_report.Json

let path : string option ref = ref None

let set_path p = path := Some p

let enabled () = Option.is_some !path

(* A bad output file fails the run with one line and exit 2: an
   uncaught [Sys_error] hides which file was at fault, and resetting a
   file that is not a benchmark document would discard whatever it
   held. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

(* [Sys_error] messages repeat the path as a "FILE: " prefix. *)
let reason file msg =
  let prefix = file ^ ": " in
  if String.starts_with ~prefix msg then
    String.sub msg (String.length prefix) (String.length msg - String.length prefix)
  else msg

let write file json =
  try Json.to_file file json
  with Sys_error msg -> fail "cannot write %s: %s" file (reason file msg)

let load file =
  if Sys.file_exists file then
    match Json.of_file file with
    | Ok (Json.Obj _ as o) -> o
    | Ok _ -> fail "%s is not a JSON object; refusing to overwrite it" file
    | Error msg -> fail "%s is not valid JSON (%s); refusing to overwrite it" file msg
    | exception Sys_error msg -> fail "cannot read %s: %s" file (reason file msg)
  else Json.Obj []

(* Merges [fields] into the [section] object of the output file,
   creating both as needed.  Writes through immediately: a crashed or
   interrupted later experiment cannot lose the sections already
   measured.  An existing file must already be a JSON object. *)
let record ~section fields =
  match !path with
  | None -> ()
  | Some file ->
      let root = load file in
      let root = Json.set "schema" (Json.String "cliffedge-bench/1") root in
      let section_obj =
        match Json.member section root with
        | Some (Json.Obj _ as o) -> o
        | Some _ | None -> Json.Obj []
      in
      let section_obj =
        List.fold_left (fun acc (k, v) -> Json.set k v acc) section_obj fields
      in
      write file (Json.set section section_obj root)

(* Host wall-clock of one thunk, in milliseconds.  The whole harness is
   single-threaded CPU-bound work, so [Sys.time] (CPU seconds) is the
   stable choice: immune to machine load, comparable across runs. *)
let time_ms f =
  let t0 = Sys.time () in
  let result = f () in
  (result, (Sys.time () -. t0) *. 1000.0)
