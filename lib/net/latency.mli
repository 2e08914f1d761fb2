(** Latency models for channels and failure detection.

    The paper's channels are asynchronous: correctness may not depend on
    timing, only on FIFO order and eventual delivery.  Experiments sweep
    these models to stress interleavings (staggered detection is what
    creates the conflicting-view scenario of Fig. 1(b)). *)

type t =
  | Constant of float  (** fixed delay *)
  | Uniform of { min : float; max : float }  (** uniform in [\[min, max\]] *)
  | Exponential of { min : float; mean : float }
      (** [min] plus an exponential draw of the given mean: a long-tailed
          model producing rare stragglers *)

val sample : t -> Cliffedge_prng.Prng.t -> float
(** Draws a delay; always non-negative. *)

val of_string : string -> (t, string) result
(** Parses ["const:5"], ["uniform:1:10"], ["exp:1:5"].  Parameters are
    validated: non-finite or negative values, [uniform] with
    [min > max] and [exp] with a non-positive mean are rejected with a
    descriptive error rather than constructing a model that samples
    garbage. *)

val pp : Format.formatter -> t -> unit
(** Round-trips with {!of_string}. *)
