(** OpenMP [schedule(static, chunk)] iteration scheduling.

    Iterations of the parallel loop are numbered [0 .. total-1] (normalized:
    iteration [q] corresponds to induction-variable value
    [lower + q * step]).  Chunks of [chunk] consecutive iterations are dealt
    to threads round-robin, exactly the paper's assumption (§III): chunk [c]
    goes to thread [c mod threads].

    A {e chunk run} (paper §III-E) is one row of the deal: all [threads]
    threads executing one chunk each, i.e. [chunk * threads] iterations. *)

type t = private { threads : int; chunk : int; total : int }

val make : threads:int -> chunk:int -> total:int -> t
(** @raise Invalid_argument unless [threads >= 1], [chunk >= 1],
    [total >= 0]. *)

val block_chunk : threads:int -> total:int -> int
(** The chunk size OpenMP uses for [schedule(static)] {e without} a chunk
    argument: iterations are divided into contiguous blocks of (at most)
    [ceil(total / threads)], one per thread. *)

val owner : t -> int -> int
(** [owner t q] is the thread executing iteration [q]. *)

val chunk_index : t -> int -> int
(** Index of the chunk containing iteration [q]. *)

val chunk_run_of_iter : t -> int -> int
(** Index of the chunk run containing iteration [q]. *)

val nth_iter_of_thread : t -> tid:int -> int -> int option
(** [nth_iter_of_thread t ~tid k] is the iteration a thread executes at its
    own position [k] (0-based, in its execution order), or [None] past the
    thread's last iteration. *)

val nth_iter_int : t -> tid:int -> int -> int
(** Allocation-free {!nth_iter_of_thread}: [-1] instead of [None]. *)

val count_of_thread : t -> tid:int -> int
(** Number of iterations thread [tid] executes in total ([0] for a [tid]
    outside [0 .. threads-1]).  O(1): [full * chunk] for the
    [full = total / (chunk * threads)] whole rounds of the deal, plus
    [tid]'s share of the remainder round. *)

val iters_of_thread : t -> tid:int -> int list
(** All iterations of a thread in execution order (test-sized inputs). *)

val chunk_runs_total : t -> int
(** Number of chunk runs needed to cover all iterations (the paper's
    [x_max]). *)

val max_steps_per_thread : t -> int
(** Maximum over threads of [count_of_thread] (thread 0's count, since
    it is dealt first in every round); the lockstep-evaluation depth.
    O(1). *)

val chunks_per_thread : t -> int
(** Chunks the busiest thread executes:
    [ceil (max_steps_per_thread / chunk)].  Each is one dealt share, so
    this is also that thread's count of cross-chunk jumps plus one. *)

val pp : Format.formatter -> t -> unit
