(** Deterministic splittable pseudo-random number generator.

    A self-contained implementation of SplitMix64 (Steele, Lea & Flood,
    OOPSLA 2014).  Every random choice in the repository flows through this
    module so that a scenario is fully determined by its integer seed: the
    same seed always yields the same topology, the same fault schedule, the
    same message latencies and therefore the same protocol run. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Two generators created with
    the same seed produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay the exact future
    stream of [t]. *)

val split : t -> t
(** [split t] derives a new generator whose stream is statistically
    independent from the remainder of [t]'s stream.  Advances [t]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws a uniform integer in [\[0, bound)].  [bound] must be
    positive.
    @raise Invalid_argument if [bound <= 0]. *)

val int_in_range : t -> min:int -> max:int -> int
(** [int_in_range t ~min ~max] draws uniformly from the inclusive range.
    @raise Invalid_argument if [max < min]. *)

val float : t -> float -> float
(** [float t bound] draws a uniform float in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val choose : t -> 'a list -> 'a
(** [choose t xs] picks a uniform element.
    @raise Invalid_argument on the empty list. *)

val choose_array : t -> 'a array -> 'a
(** [choose_array t xs] picks a uniform element.
    @raise Invalid_argument on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] draws [k] distinct elements (order randomized).
    @raise Invalid_argument if [k] exceeds the length of [xs]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean, for latency
    models. *)
