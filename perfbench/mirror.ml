(* The traced run's view of one request: the same layer calls the
   request makes inside the program, issued from here in the same order
   and under the same conditions, each wrapped in a span.  The mirror of
   [Analysis.Lint.run] follows lib/analysis/lint.ml; [lint.covered_share]
   (mirrored self time over the untraced request time) shows when the
   two drift apart. *)

module Model = Fsmodel.Model
module Depend = Analysis.Depend

type counts = {
  mutable refs : int;  (** references in lowered nests *)
  mutable pairs : int;  (** dependence pairs formed *)
  mutable exact : int;  (** pairs decided by the exact tier *)
  mutable unknown : int;  (** [Unknown] verdicts *)
  mutable cf_calls : int;  (** [Closed_form.estimate] calls *)
  mutable cf_exact : int;  (** ... that returned a certificate *)
  mutable cf_lines : int;  (** [info.lines_analyzed], summed *)
  mutable thread_steps : int;  (** [Model.result.thread_steps], summed *)
  mutable advisor_runs : int;  (** [Model.run_count] delta in the advisor *)
  mutable fixer_calls : int;
  mutable fixer_verified : int;
  mutable fixer_runs : int;  (** [Model.run_count] delta in the fixer *)
  mutable dist_seeds : int;
  mutable probes : (unit -> unit) list;
      (** recorder-free reruns of each attributed engine run; timed
          after the traced pass so [attrib.ms] can subtract them *)
}

let counts () =
  {
    refs = 0;
    pairs = 0;
    exact = 0;
    unknown = 0;
    cf_calls = 0;
    cf_exact = 0;
    cf_lines = 0;
    thread_steps = 0;
    advisor_runs = 0;
    fixer_calls = 0;
    fixer_verified = 0;
    fixer_runs = 0;
    dist_seeds = 0;
    probes = [];
  }

let engine_runs f =
  let r0 = Model.run_count () in
  let v = f () in
  (v, Model.run_count () - r0)

(* minic: Parser.parse_program runs Preproc.run on the text first. *)
let minic tr ~req text =
  Span.with_ tr ~req "minic" (fun () ->
      Minic.Typecheck.check_program (Minic.Parser.parse_program text))

(* Lint.sched_kind_of *)
let sched_kind_of ~(opts : Analysis.Lint.options) nest =
  let granule default =
    match opts.chunk with
    | Some c -> c
    | None -> (
        match Loopir.Loop_nest.chunk_spec nest with
        | Some c -> c
        | None -> default)
  in
  match opts.sched with
  | Some k -> Some k
  | None -> (
      match Loopir.Loop_nest.schedule_kind nest with
      | `Static -> None
      | `Dynamic -> Some (Ompsched.Dispatch.Dynamic { chunk = granule 1 })
      | `Guided -> Some (Ompsched.Dispatch.Guided { min_chunk = granule 1 }))

let attributed tr c ~req cfg ~nest ~checked =
  let nrefs = List.length nest.Loopir.Loop_nest.refs in
  let sink =
    Fsmodel.Attrib.create ~trace_cap:0 ~threads:cfg.Model.threads ~nrefs ()
  in
  (match
     Span.with_ tr ~req "attrib" (fun () ->
         Model.run ~attrib:sink cfg ~nest ~checked)
   with
  | r -> c.thread_steps <- c.thread_steps + r.Model.thread_steps
  | exception _ -> ());
  c.probes <-
    (fun () -> try ignore (Model.run cfg ~nest ~checked) with _ -> ())
    :: c.probes

let fixer tr c ~req ~arch ?advice ?chunk ~threads ~func checked =
  c.fixer_calls <- c.fixer_calls + 1;
  let v, runs =
    engine_runs (fun () ->
        Span.with_ tr ~req "fixer" (fun () ->
            try
              Some
                (Analysis.Fixer.verify ~arch ?advice ?chunk ~threads ~func
                   checked)
            with _ -> None))
  in
  c.fixer_runs <- c.fixer_runs + runs;
  match v with
  | Some (Analysis.Fixer.Fix v) when v.Analysis.Fixer.verified ->
      c.fixer_verified <- c.fixer_verified + 1
  | _ -> ()

let advisor tr c ~req ~arch ~threads ~func checked =
  let a, runs =
    engine_runs (fun () ->
        Span.with_ tr ~req "advisor" (fun () ->
            try Some (Fsmodel.Advisor.advise ~arch ~threads ~func checked)
            with _ -> None))
  in
  c.advisor_runs <- c.advisor_runs + runs;
  a

(* One concrete nest, as Lint.lint_nest + fs_findings + fs_count. *)
let lint_nest tr c ~req ~(opts : Analysis.Lint.options) ~checked ~params
    ~fix_pending nest =
  let sp name f = Span.with_ tr ~req name f in
  let line_bytes = Archspec.Arch.line_bytes opts.arch in
  let pairs =
    sp "depend" (fun () ->
        Depend.pairs ~line_bytes ~params ~exact:opts.exact
          ~exact_budget:opts.exact_budget nest)
  in
  c.pairs <- c.pairs + List.length pairs;
  List.iter
    (fun (p : Depend.pair) ->
      if p.Depend.ev.Depend.ev_backend = Depend.Exact then
        c.exact <- c.exact + 1;
      match p.Depend.verdict with
      | Depend.Unknown _ -> c.unknown <- c.unknown + 1
      | _ -> ())
    pairs;
  let has v = List.exists (fun (p : Depend.pair) -> p.Depend.verdict = v) pairs in
  let races = has Depend.Loop_carried in
  if has Depend.Line_conflict then begin
    let cfg =
      {
        (Model.default_config ~arch:opts.arch ~threads:opts.threads ()) with
        chunk = opts.chunk;
        params;
      }
    in
    let analytic = opts.cost_model = `Analytic in
    let replayed =
      match sched_kind_of ~opts nest with
      | None -> None
      | Some kind -> (
          match
            sp "dist" (fun () ->
                Analysis.Dist.run
                  ~seeds:(Analysis.Dist.seeds_upto opts.seeds)
                  ~kind cfg ~nest ~checked)
          with
          | d -> Some (kind, d)
          | exception _ -> None)
    in
    let fix =
      match replayed with
      | Some (kind, d) ->
          c.dist_seeds <- c.dist_seeds + Array.length d.Analysis.Dist.seeds;
          if d.Analysis.Dist.max_fs > 0 && not analytic then
            attributed tr c ~req
              { cfg with Model.sched = Some (kind, 0) }
              ~nest ~checked;
          false (* fix verification is static-schedule only *)
      | None ->
          let fs =
            try
              c.cf_calls <- c.cf_calls + 1;
              match
                sp "closed_form" (fun () ->
                    Analysis.Closed_form.estimate cfg ~nest ~checked)
              with
              | Analysis.Closed_form.Exact info ->
                  c.cf_exact <- c.cf_exact + 1;
                  c.cf_lines <-
                    c.cf_lines + info.Analysis.Closed_form.lines_analyzed;
                  info.Analysis.Closed_form.fs_cases
              | Analysis.Closed_form.Inapplicable _ when analytic -> -1
              | Analysis.Closed_form.Inapplicable _ ->
                  let r = sp "engine" (fun () -> Model.run cfg ~nest ~checked) in
                  c.thread_steps <- c.thread_steps + r.Model.thread_steps;
                  r.Model.fs_cases
            with _ -> -1
          in
          if fs > 0 && not analytic then attributed tr c ~req cfg ~nest ~checked;
          if opts.cost_model <> `Sim then
            ignore
              (sp "reuse" (fun () ->
                   try
                     Some
                       (Analysis.Reuse.analyze ~arch:opts.arch ?chunk:opts.chunk
                          ~threads:opts.threads ~params ~checked nest)
                   with _ -> None));
          fs > 0
    in
    if opts.fixits && (not races) && fix then fix_pending ()
  end

(* Analysis.Lint.run *)
let lint tr c ~req ~(opts : Analysis.Lint.options) checked =
  Span.with_ tr ~req "lint" @@ fun () ->
  let params = ("num_threads", opts.threads) :: opts.params in
  let line_bytes = Archspec.Arch.line_bytes opts.arch in
  List.iter
    (fun func ->
      match
        Span.with_ tr ~req "loopir" (fun () ->
            Loopir.Lower.lower_all checked ~func ~params)
      with
      | exception Loopir.Lower.Lower_error _ -> ()
      | nests ->
          List.iter
            (fun n -> c.refs <- c.refs + List.length n.Loopir.Loop_nest.refs)
            nests;
          let advice =
            if opts.fixits && opts.cost_model <> `Analytic then
              advisor tr c ~req ~arch:opts.arch ~threads:opts.threads ~func
                checked
            else None
          in
          (* Lint forces its lazy Fixer.verify at most once per function *)
          let forced = ref false in
          let fix_pending () =
            if not !forced then begin
              forced := true;
              match advice with
              | Some a ->
                  fixer tr c ~req ~arch:opts.arch ~advice:a ?chunk:opts.chunk
                    ~threads:opts.threads ~func checked
              | None -> ()
            end
          in
          List.iter
            (fun nest ->
              if Depend.free_params ~params nest <> [] then
                ignore
                  (Span.with_ tr ~req "depend" (fun () ->
                       Depend.pairs_sym ~line_bytes ~params ~exact:opts.exact
                         ~exact_budget:opts.exact_budget
                         ~extent_of:(fun _ -> None)
                         nest))
              else
                lint_nest tr c ~req ~opts ~checked ~params ~fix_pending nest)
            nests)
    (Loopir.Lower.find_parallel_functions checked.Minic.Typecheck.prog)

(* Api.run_explain: lower the one function, then Explain.analyze and
   the text renderer. *)
let explain tr ~req ~arch ~threads ~chunk ~func checked ~text ~uri =
  let params = [ ("num_threads", threads) ] in
  match
    Span.with_ tr ~req "loopir" (fun () ->
        Loopir.Lower.lower checked ~func ~params)
  with
  | exception _ -> ()
  | nest ->
      let cfg =
        { (Model.default_config ~arch ~threads ()) with chunk; params }
      in
      Span.with_ tr ~req "explain" (fun () ->
          try
            ignore
              (Explain.to_text ~source:text
                 (Explain.analyze ~uri ~func cfg ~nest ~checked))
          with _ -> ())

(* Api.run_analyze's text report under the sim cost model: lower, the
   dependence summary, then Overhead_percent.analyze (the engine at the
   FS-prone and at the optimized chunk). *)
let analyze tr ~req ~arch ~threads ~fs_chunk ~nfs_chunk ~func checked =
  let params = [ ("num_threads", threads) ] in
  match
    Span.with_ tr ~req "loopir" (fun () -> Loopir.Lower.lower checked ~func ~params)
  with
  | exception _ -> ()
  | nest -> (
      (try
         ignore
           (Span.with_ tr ~req "depend" (fun () ->
                Depend.pairs ~line_bytes:(Archspec.Arch.line_bytes arch) ~params nest))
       with _ -> ());
      try
        ignore
          (Span.with_ tr ~req "engine" (fun () ->
               Fsmodel.Overhead_percent.analyze ~arch ~threads ~fs_chunk ~nfs_chunk
                 ~func checked))
      with _ -> ())

let share a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Layer metrics from the mirror's spans and counts.  [probe_ms] is the
   recorder-free rerun time of the attributed engine runs: it moves
   from [attrib.ms] to [engine.ms], so the two split [Model.run ~attrib]
   into engine and attribution work. *)
let metrics acc ~probe_ms c =
  let ms name = Span.total_ms acc name in
  let n x = float_of_int x in
  [
    ("minic.ms", ms "minic", "ms");
    ("loopir.ms", ms "loopir", "ms");
    ("loopir.refs", n c.refs, "count");
    ("depend.ms", ms "depend", "ms");
    ("depend.pairs", n c.pairs, "count");
    ("depend.exact_share", share c.exact c.pairs, "ratio");
    ("depend.unknown", n c.unknown, "count");
    ("closed_form.ms", ms "closed_form", "ms");
    ("closed_form.lines", n c.cf_lines, "count");
    ("closed_form.certified_share", share c.cf_exact c.cf_calls, "ratio");
    ("reuse.ms", ms "reuse", "ms");
    ("engine.ms", ms "engine" +. probe_ms, "ms");
    ("engine_ref.ms", ms "engine_ref", "ms");
    ("engine.thread_steps", n c.thread_steps, "count");
    ("attrib.ms", Float.max 0. (ms "attrib" -. probe_ms), "ms");
    ("advisor.ms", ms "advisor", "ms");
    ("advisor.engine_runs", n c.advisor_runs, "count");
    ("fixer.ms", ms "fixer", "ms");
    ("fixer.engine_runs", n c.fixer_runs, "count");
    ("fixer.verified_share", share c.fixer_verified c.fixer_calls, "ratio");
    ("dist.ms", ms "dist", "ms");
    ("dist.seeds", n c.dist_seeds, "count");
    ("explain.ms", ms "explain", "ms");
    ("lint.ms", ms "lint", "ms");
    ("lint.self_ms", Span.self_ms acc "lint", "ms");
  ]

(* Layer self time the mirror accounts for. *)
let layer_self_ms acc =
  List.fold_left
    (fun s name -> s +. Span.self_ms acc name)
    0.
    [ "minic"; "loopir"; "depend"; "closed_form"; "reuse"; "engine"; "attrib";
      "advisor"; "fixer"; "dist"; "explain" ]
