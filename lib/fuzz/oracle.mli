(** The oracle matrix: every generated nest is pushed through the whole
    pipeline and the four analysis paths are cross-checked against each
    other and against brute force.

    Checks, in pipeline order:

    - [pipeline/parse], [roundtrip/pretty]: the pretty-printed source
      reparses, and to the same (span-erased) AST the generator built;
    - [pipeline/typecheck]: generated programs are well-typed by
      construction;
    - [lint/render], [lint/json]: the lint pass and both renderers run
      without raising, and the SARIF output is well-formed JSON of the
      promised shape;
    - [pipeline/lower] / [lower/nonaffine]: affine nests lower, nests
      with a deliberately nonaffine subscript are rejected by {!Loopir.Lower}
      {e and} surface as an [analysis/unknown] lint finding;
    - [engine/fast-vs-ref]: the fast and reference model engines agree
      exactly (FS count, lockstep steps, iterations, chunk runs);
    - [attrib/conserve], [attrib/engines]: an {!Fsmodel.Attrib}
      recorder attached to each engine records exactly [fs_cases]
      events whose per-pair histogram sums back to that total, and both
      engines attribute every case to the same (writer reference,
      victim reference, thread pair) provenance;
    - [closed/exact]: when {!Analysis.Closed_form.estimate} certifies a
      count, it equals the engine's;
    - [depend/brute]: first-tier ([~exact:`Off]) [Independent] /
      [Line_conflict] must-claims hold against brute-force enumeration
      of distinct parallel iterations (skipped per pair when the
      iteration space exceeds the budget);
    - [exact/refines], [exact/brute], [exact/witness]: the exact tier's
      verdict is never strictly worse than the Banerjee verdict for the
      same pair, its must-verdicts match the brute-force byte/line
      classification {e exactly} (both directions, not just soundness),
      and every emitted witness replays: distinct parallel iterations
      whose evaluated offsets exhibit exactly the claimed overlap;
    - [exact/sym]: on single-parameter nests, the exact-refined
      symbolic tree instantiated at sampled values is never strictly
      worse than the unrefined ([~exact:`Off]) tree;
    - [sym/depend], [sym/depend-sound], [sym/count]: on single-parameter
      nests, instantiated symbolic verdicts refine the concrete analysis
      at sampled values (at least as severe, per the {!Analysis.Depend}
      contract), their own must-claims survive brute force, and a
      certified quasi-polynomial matches the engine count;
    - [sched/replay], [sched/static-equiv], [sched/steal-bound]: on
      concrete nests, a seeded schedule replay is one value (two fast
      runs and a reference run of [(dynamic,1)] at the same seed agree
      exactly), a one-thread team or a chunk covering the whole trip
      collapses dynamic dispatch back to the static deal, and — when
      the pragma is the no-chunk static deal — every work-stealing
      seed's FS count stays within the Cole–Ramachandran bound
      (block-deal count plus O(chunk) extra cases per steal);
    - [reuse/conserve]: on concrete nests, the static reuse-distance
      model's hit buckets sum exactly back to its access count, and its
      miss rate and stall estimate are well-formed;
    - [fix/roundtrip], [fix/verified]: on a deterministic subset of
      generated cases (and on every corpus file), the fix loop's laws:
      when {!Analysis.Fixer.verify} materializes a fix, the transformed
      source round-trips through the printer, a second verify reproduces
      every claimed metric bit-for-bit, the [`Reference] engine
      reproduces the verdict's before and after counts (see
      {!reference_fs}), and the reported removal is consistent with the
      before/after counts.  A fix that {e underdelivers} (does not
      verify) is not an oracle failure — it lands in [promote] as
      mining yield for the corpus;
    - [reuse/sim]: on the same deterministic subset as [execsim/run],
      the reuse model's beyond-L1 traffic agrees with the instrumented
      cache simulator within a loose factor-of-eight band — a drift
      tripwire, not an accuracy gate (the pinned per-kernel tolerances
      in the test suite are the accuracy gate);
    - [execsim/run]: on a deterministic subset, the instrumented
      interpreter executes the program without raising.

    [mutate] injects a known fault into one of the analysis paths so
    the harness itself can be tested: a run with a mutation must report
    a disagreement and shrink it. *)

type mutation =
  | Fast  (** off-by-one the fast engine's FS count *)
  | Closed  (** off-by-one the closed-form count *)
  | Depend_m  (** demote a [Line_conflict] verdict to [Independent] *)
  | Sym  (** corrupt symbolic verdicts and counts *)
  | Attrib_m  (** off-by-one the attribution recorder's total *)
  | Exact_m  (** corrupt the first exact witness's iteration values *)
  | Reuse_m  (** off-by-one the reuse model's bucket conservation *)
  | Sched_m  (** off-by-one a seeded-schedule replay's FS count *)
  | Fix_m  (** off-by-one the fix verdict's claimed after-count *)

val mutation_of_string : string -> mutation option
val mutation_name : mutation -> string
val mutation_names : string list

type outcome = {
  failure : (string * string) option;  (** (check, detail); [None] = pass *)
  exercised : string list;  (** checks that actually ran on this case *)
  promote : string option;
      (** set when the case is promotion-worthy for the regression
          corpus (a materialized fix underdelivered); the string says
          why *)
}

val check_spec : ?mutate:mutation -> ?brute_budget:int -> Spec.t -> outcome
(** Run the whole matrix on one generated case.  [brute_budget] caps the
    per-pair work of the brute-force dependence oracle (default 300000
    elementary comparisons). *)

val check_source :
  ?mutate:mutation ->
  ?brute_budget:int ->
  threads:int ->
  chunk:int option ->
  string ->
  outcome
(** Source-level variant for corpus replay: the same matrix minus the
    spec-specific checks (round-trip against the generating structure,
    expected-nonaffine bookkeeping).  Every parallel function and nest
    of the program is checked. *)

val reference_fs :
  ?chunk:int ->
  threads:int ->
  func:string ->
  Minic.Typecheck.checked ->
  int
(** [func]'s FS count by the [`Reference] engine, summed over its nests
    lowered with [num_threads] bound to [threads] on the paper machine,
    with [?chunk] overriding every pragma chunk as [Fixer.verify ?chunk]
    does — the test-tier oracle for {!Analysis.Fixer.verify}'s counts,
    which come from the closed form or one fast-engine run.  Raises
    what lowering raises. *)

val scan_header : string -> int * int option
(** Parse the [threads:] / [chunk:] lines of a counterexample header
    comment (see {!Spec.header}); defaults to [(4, None)]. *)
