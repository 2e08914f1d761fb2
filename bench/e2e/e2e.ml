(* Command line of the end-to-end benchmark (see README.md).

     e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--json FILE] [--spans FILE]
     e2e.exe validate BENCHMARK.json RESULT.json...
     e2e.exe agree [--benchmark BENCHMARK.json] A.json... -- B.json...

   Bad input of any kind is one line on stderr and exit code 2. *)

open E2e_bench

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("e2e: " ^ m);
      exit 2)
    fmt

let workload_names () = String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all)

(* Opens (and truncates) an output file up front, so an unwritable path
   fails before any measuring. *)
let open_output flag path =
  try open_out path with Sys_error m -> fail "cannot write %s file: %s" flag m

let guard f = try f () with Report.Bad m -> fail "%s" m

type args = {
  workload : Workload.t option;
  seed : int;
  seconds : float;
  trace : bool;
  json : string option;
  spans_file : string option;
}

let rec parse a = function
  | [] -> a
  | "--workload" :: v :: rest -> (
      match Workload.find v with
      | Some w -> parse { a with workload = Some w } rest
      | None -> fail "unknown workload %S (expected one of: %s)" v (workload_names ()))
  | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some seed -> parse { a with seed } rest
      | None -> fail "--seed expects an integer, got %S" v)
  | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when Float.is_finite s && s > 0. && s <= 600. -> parse { a with seconds = s } rest
      | Some _ | None -> fail "--seconds expects a number in (0, 600], got %S" v)
  | "--trace" :: v :: rest -> (
      match v with
      | "0" -> parse { a with trace = false } rest
      | "1" -> parse { a with trace = true } rest
      | _ -> fail "--trace expects 0 or 1, got %S" v)
  | "--json" :: v :: rest -> parse { a with json = Some v } rest
  | "--spans" :: v :: rest -> parse { a with spans_file = Some v } rest
  | [ ("--workload" | "--seed" | "--seconds" | "--trace" | "--json" | "--spans") as flag ] ->
      fail "%s expects a value" flag
  | arg :: _ -> fail "unknown argument %S (see README.md)" arg

let run args =
  let a =
    parse
      { workload = None; seed = 0; seconds = 10.; trace = false; json = None; spans_file = None }
      args
  in
  let w =
    match a.workload with
    | Some w -> w
    | None -> fail "--workload is required (one of: %s)" (workload_names ())
  in
  if Option.is_some a.spans_file && not a.trace then fail "--spans needs --trace 1";
  let json = Option.map (open_output "--json") a.json in
  let spans_out = Option.map (open_output "--spans") a.spans_file in
  let spans = Spans.create () in
  let r =
    if a.trace then Measure.layers w ~seed:a.seed ~seconds:a.seconds ~spans
    else Measure.end_to_end w ~seed:a.seed ~seconds:a.seconds
  in
  Printf.printf "e2e: workload %s, seed %d, %g s, trace %d: %d ops, %d failed\n" w.name a.seed
    a.seconds
    (if a.trace then 1 else 0)
    r.attempted r.failed;
  List.iter
    (fun (m : Measure.metric) -> Printf.printf "  %-32s %14.6g %s\n" m.name m.value m.unit)
    r.metrics;
  List.iter (fun n -> Printf.printf "  # %s\n" n) r.notes;
  Option.iter
    (fun oc ->
      output_string oc
        (Report.result_file ~workload:w.name ~seed:a.seed ~seconds:a.seconds ~trace:a.trace r);
      output_char oc '\n';
      close_out oc)
    json;
  Option.iter
    (fun oc ->
      Spans.to_jsonl oc spans;
      close_out oc)
    spans_out;
  print_endline (Report.result_line r)

let validate = function
  | spec :: (_ :: _ as files) ->
      let spec = guard (fun () -> Report.load_spec spec) in
      let runs = guard (fun () -> List.map Report.load_run files) in
      (match Report.problems spec runs with
      | [] -> Printf.printf "validate: %d result files ok\n" (List.length runs)
      | errs ->
          List.iter (fun e -> Printf.printf "validate: %s\n" e) errs;
          exit 1)
  | _ -> fail "usage: e2e.exe validate BENCHMARK.json RESULT.json..."

let agree args =
  let spec, args =
    match args with
    | "--benchmark" :: f :: rest -> (f, rest)
    | _ -> ("BENCHMARK.json", args)
  in
  let rec split acc = function
    | "--" :: b -> (List.rev acc, b)
    | x :: rest -> split (x :: acc) rest
    | [] -> fail "usage: e2e.exe agree [--benchmark FILE] A.json... -- B.json..."
  in
  let a, b = split [] args in
  if a = [] || b = [] then fail "agree needs result files on both sides of --";
  let spec = guard (fun () -> Report.load_spec spec) in
  let a = guard (fun () -> List.map Report.load_run a) in
  let b = guard (fun () -> List.map Report.load_run b) in
  if not (Report.agree spec a b) then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "validate" :: rest -> validate rest
  | "agree" :: rest -> agree rest
  | args -> run args
