module Prng = Cliffedge_prng.Prng

type t =
  | Constant of float
  | Uniform of { min : float; max : float }
  | Exponential of { min : float; mean : float }

let sample t rng =
  let raw =
    match t with
    | Constant d -> d
    | Uniform { min; max } -> min +. Prng.float rng (max -. min)
    | Exponential { min; mean } -> min +. Prng.exponential rng ~mean
  in
  Float.max 0.0 raw

(* Every parameter is validated here rather than at sample time: a
   model that parses is a model that samples sensible delays.  The same
   style (per-field descriptive errors, [let*] chaining) is mirrored by
   [Faults.of_string]. *)
let of_string s =
  let ( let* ) = Result.bind in
  let fail () =
    Error
      (Printf.sprintf
         "unrecognized latency spec %S (expected const:D, uniform:MIN:MAX or \
          exp:MIN:MEAN)"
         s)
  in
  let param name raw =
    match float_of_string_opt raw with
    | Some v when Float.is_finite v && v >= 0.0 -> Ok v
    | Some v ->
        Error
          (Printf.sprintf "latency spec %S: %s must be finite and non-negative, got %g"
             s name v)
    | None -> Error (Printf.sprintf "latency spec %S: %s is not a number: %S" s name raw)
  in
  match String.split_on_char ':' s with
  | [ "const"; d ] ->
      let* d = param "delay" d in
      Ok (Constant d)
  | [ "uniform"; min; max ] ->
      let* min = param "min" min in
      let* max = param "max" max in
      if min <= max then Ok (Uniform { min; max })
      else
        Error
          (Printf.sprintf "latency spec %S: empty range (min %g > max %g)" s min max)
  | [ "exp"; min; mean ] ->
      let* min = param "min" min in
      let* mean = param "mean" mean in
      if mean > 0.0 then Ok (Exponential { min; mean })
      else
        Error (Printf.sprintf "latency spec %S: mean must be positive, got %g" s mean)
  | _ -> fail ()

let pp ppf =
  let num = Cliffedge_graph.Topology.pp_spec_float in
  function
  | Constant d -> Format.fprintf ppf "const:%a" num d
  | Uniform { min; max } -> Format.fprintf ppf "uniform:%a:%a" num min num max
  | Exponential { min; mean } -> Format.fprintf ppf "exp:%a:%a" num min num mean
