(** Fix verification: the closed loop from advice to a proven transformed
    program.

    [Fsmodel.Transform] materializes the fix; this module re-runs the
    analysis stack on the result — the FS count, the dependence
    analysis, and the analytic reuse-distance cost model — and compares
    against the original.  Each nest's FS count is computed once: it is
    the certified closed form that the cost model's [Reuse.analyze]
    already yields, or one [`Fast] engine run when the nest has no
    certificate.  Under [?chunk] the certificate is for the nest as
    [schedule(static, c)], so a dynamic or guided nest takes the
    engine run, which replays its own schedule.  A fix is {e verified} when

    - the transformed source round-trips (re-parses and re-typechecks to
      the same span-erased AST),
    - the attributed FS removal reaches [min_removal] (default 90%),
    - no new race appears, and
    - the analytic [Total_c] does not regress beyond [cost_slack]
      (default 5%).

    Engine agreement is a test-tier gate, not a production check:
    [test/fix_verify.ml] and the fuzz oracle's [fix/verified] row
    compare both counts against the [`Reference] engine.  The
    execution-simulator leg of the gate lives there too, with the bench
    driver; this library stays simulator-free. *)

type metrics = {
  fs : int;
      (** FS cases summed over all nests: closed form where certified,
          else the [`Fast] engine *)
  races : int;  (** loop-carried dependence pairs *)
  cost : float option;
      (** analytic [Total_c] summed over nests; [None] when some nest has
          no analytic certificate *)
}

type verdict = {
  func : string;
  plan : Fsmodel.Transform.plan;
  before : metrics;
  after : metrics;
  removal : float;  (** fraction of attributed FS removed, 1.0 when none *)
  cost_ratio : float option;  (** after/before analytic cost *)
  min_removal : float;
  cost_slack : float;
  roundtrip_ok : bool;
  verified : bool;
  transformed : Minic.Typecheck.checked;
  source : string;  (** pretty-printed transformed program *)
}

type outcome =
  | Nothing_to_fix of string
      (** empty plan, parametric nest, or non-lowerable function — the
          string says which *)
  | Fix of verdict

val verify :
  ?arch:Archspec.Arch.t ->
  ?advice:Fsmodel.Advisor.advice ->
  ?min_removal:float ->
  ?cost_slack:float ->
  ?chunk:int ->
  threads:int ->
  func:string ->
  Minic.Typecheck.checked ->
  outcome
(** Plan (via [Fsmodel.Transform.plan], reusing [advice] when the caller
    already ran the chunk sweep), materialize, and measure before/after.
    [chunk] overrides the schedule chunk in both measurements; leave it
    unset so a retuned schedule takes effect in the after-measurement. *)

val to_text : verdict -> string
(** Deterministic multi-line report (plan, before/after metrics, removal,
    cost ratio, verdict) — the text half of [fsdetect fix]. *)

val to_json : verdict -> Json.t
(** The same report as a JSON object, including the transformed source
    under ["transformedSource"]. *)
