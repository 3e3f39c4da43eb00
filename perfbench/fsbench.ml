(* fsbench: the fsdetect benchmark.  Usually run through run.py, which
   builds it; see README.md for the workloads and every metric.

     fsbench.exe --fsdetect EXE --workload W --seed N --seconds S --trace 0|1

   The last line of stdout is one JSON object with the keys correct,
   attempted, failed and metrics: the end-to-end metrics with --trace 0,
   the per-layer metrics with --trace 1.  The exit code is 1 when any
   output check failed, 2 on bad arguments or a broken set-up. *)

module J = Analysis.Json

let workloads = [ "lint-registry"; "lint-scaled"; "serve-mixed" ]

(* Every per-layer metric, reported (0 where the workload does not
   exercise the layer) by every traced run.  BENCHMARK.json lists the
   same names. *)
let per_layer =
  [
    "minic.ms"; "loopir.ms"; "loopir.refs"; "depend.ms"; "depend.pairs";
    "depend.exact_share"; "depend.unknown"; "closed_form.ms";
    "closed_form.lines"; "closed_form.certified_share"; "reuse.ms"; "engine.ms";
    "engine_ref.ms"; "engine.runs"; "engine.thread_steps"; "attrib.ms";
    "advisor.ms"; "advisor.engine_runs"; "fixer.ms"; "fixer.engine_runs";
    "fixer.verified_share"; "dist.ms"; "dist.seeds"; "explain.ms"; "lint.ms";
    "lint.self_ms"; "lint.covered_share"; "api.ms"; "cache.parse.hit_share";
    "cache.typecheck.hit_share"; "cache.lower.hit_share";
    "cache.lower_all.hit_share"; "cache.resp.hit_share"; "cache.evictions";
    "cache.resp.redundant_misses"; "serve.wait_ms"; "gc.minor_mwords";
    "gc.major_collections"; "peak_rss_mb"; "host.steal_share";
    "trace.overhead_share";
  ]
  @ List.map (Printf.sprintf "lint.%s.ms") (Lintw.kernel_names ())

let unit_of name =
  let ends suf = String.ends_with ~suffix:suf name in
  if ends "ms" then "ms"
  else if ends "share" then "ratio"
  else if ends "mwords" then "Mwords"
  else if ends "mb" then "MiB"
  else "count"

(* Set-ups per serve-mixed run; set-up time is their median. *)
let setups = 9

(* Generated sources per lint-scaled pass. *)
let scaled_count = 12

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("fsbench: " ^ m);
      exit 2)
    fmt

type args = {
  exe : string;
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args () =
  let exe = ref "" and workload = ref "" and seed = ref (-1) in
  let seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--fsdetect", Arg.Set_string exe, "EXE  the fsdetect binary");
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N  input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S  measuring time (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer run");
    ]
    (fun a -> die "unexpected argument %S" a)
    "fsbench.exe --fsdetect EXE --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then die "unknown --workload %S" !workload;
  if !seed < 0 then die "--seed must be >= 0";
  if !seconds < 1 then die "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (Sys.file_exists !exe) then die "fsdetect binary %S not found" !exe;
  {
    exe = !exe;
    workload = !workload;
    seed = !seed;
    seconds = float_of_int !seconds;
    trace = !trace = 1;
  }

(* The machine fingerprint; asking the binary for its version is also
   the first step of every set-up. *)
let fingerprint exe =
  match Util.capture exe [ "--version" ] with
  | Ok v ->
      Printf.sprintf "nproc=%d ocaml=%s fsdetect=%s"
        (Domain.recommended_domain_count ())
        Sys.ocaml_version v
  | Error e -> die "%s" e

(* One set-up's time and result.  Each starts after a full major
   collection, so it does not pay for the garbage of what ran before. *)
let timed f =
  Gc.compact ();
  let t0 = Util.now () in
  let v = f () in
  (Util.now () -. t0, v)

(* Run [f] [setups] times; the median time and the last result. *)
let timed_setups f =
  let runs = List.init setups (fun i -> timed (fun () -> f ~last:(i = setups - 1))) in
  (Util.median (List.map fst runs), snd (List.nth runs (setups - 1)))

(* The fingerprint with the host's CPU steal share over the measured
   part of the run: a run on a host that ran other guests' work reads
   slower, and this tells that apart from a slower program. *)
let with_steal fp steal = Printf.sprintf "%s steal=%.4f" fp steal

let write_trace a ~meta spans =
  let dir = "perfbench-out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/trace-%s-seed%d.json" dir a.workload a.seed in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string (Span.chrome_json ~meta spans)));
  path

(* Passes per lint run: [--seconds] over the pass time the workload had
   when the benchmark was defined (lint-registry about 14 s, lint-scaled
   about 6 s on a 2-vCPU Xeon KVM guest), at least one.  The count
   depends on [--seconds] only, so every run of a workload times the
   same passes however fast the program is.  A count taken from the
   measured time flipped between one and two passes on lint-registry,
   so the first pass, which grows the heap, was all of [pass_s] in some
   runs and half of it in others. *)
let pass_count a =
  let nominal_s = if a.workload = "lint-registry" then 15. else 7.5 in
  max 1 (int_of_float (a.seconds /. nominal_s))

let lint_inputs a ?tr () =
  if a.workload = "lint-registry" then Lintw.registry ?tr ()
  else Lintw.scaled ~rng:(Random.State.make [| a.seed |]) ~count:scaled_count

let run a tally =
  match a.workload with
  | "serve-mixed" ->
      let setup_s, (fp, (lanes, conn)) =
        timed_setups (fun ~last ->
            let fp = fingerprint a.exe in
            match Servew.setup ~exe:a.exe ~seed:a.seed with
            | Error e -> die "%s" e
            | Ok (lanes, conn) ->
                if not last then Servew.stop conn;
                (fp, (lanes, conn)))
      in
      (* the traced run drives half as long: its in-process replay and
         mirror then fit the same time limit as an untraced run *)
      let seconds = if a.trace then a.seconds /. 2. else a.seconds in
      let run = Servew.drive tally conn lanes ~seconds in
      Servew.stop conn;
      let fp = with_steal fp run.Servew.steal in
      if a.trace then
        let m, spans = Servew.traced run in
        (fp, m, [], Some spans)
      else
        let m, notes = Servew.end_to_end run in
        (fp, ("setup_s", setup_s, "s") :: m, notes, None)
  | _ when a.trace ->
      let setup_tr = Span.create ~tid:0 in
      let fp = fingerprint a.exe in
      let inputs = lint_inputs a ~tr:setup_tr () in
      let m, spans = Lintw.traced ~tally ~setup_tr inputs in
      let steal =
        match List.find_opt (fun (n, _, _) -> n = "host.steal_share") m with
        | Some (_, v, _) -> v
        | None -> 0.
      in
      (with_steal fp steal, m, [], Some spans)
  | _ ->
      (* The set-up runs once up front and again before every request of
         every pass, off the request's clock: the host slows down in
         spells of a second or more, and set-ups spread over the whole
         run sample them the way the passes do, where nine in a row
         would all fall into one spell. *)
      let setup () = timed (fun () -> (fingerprint a.exe, lint_inputs a ())) in
      let t, (fp, inputs) = setup () in
      let times = ref [ t ] in
      let between () = times := fst (setup ()) :: !times in
      let passes, peak, steal =
        Lintw.passes tally ~count:(pass_count a) ~between inputs
      in
      let setup_s = Util.median !times in
      ( with_steal fp steal,
        ("setup_s", setup_s, "s") :: Lintw.end_to_end passes,
        [
          Printf.sprintf "%d pass(es) of %d inputs: %s s" (List.length passes)
            (List.length inputs)
            (String.concat " "
               (List.map (fun p -> Printf.sprintf "%.3f" p.Lintw.secs) passes));
          Printf.sprintf "peak_rss_mb %.4f MiB after the first pass (not gated)" peak;
        ],
        None )

let () =
  (* a server that dies shows up as a failed send, not a silent SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a = parse_args () in
  let tally = Util.tally () in
  let fp, computed, notes, spans = run a tally in
  let failed_share =
    float_of_int tally.Util.failed /. float_of_int (max 1 tally.Util.attempted)
  in
  let metrics =
    if a.trace then
      List.map
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) computed with
          | Some m -> m
          | None -> (name, 0., unit_of name))
        per_layer
    else computed @ [ ("ok_share", 1. -. failed_share, "ratio") ]
  in
  Printf.printf "# fsbench %s seed=%d seconds=%g trace=%d\n" a.workload a.seed a.seconds
    (if a.trace then 1 else 0);
  Printf.printf "# machine: %s\n" fp;
  List.iter (fun n -> Printf.printf "# %s\n" n) notes;
  List.iter (fun (n, v, u) -> Printf.printf "# %-32s %14.4f %s\n" n v u) metrics;
  Printf.printf "# %-32s %14.4f ratio (%d of %d)\n" "failed_share" failed_share
    tally.Util.failed tally.Util.attempted;
  (match spans with
  | Some spans ->
      let path =
        write_trace a ~meta:[ ("machine", J.Str fp); ("workload", J.Str a.workload) ] spans
      in
      Printf.printf "# trace: %s\n" path
  | None -> ());
  let correct = tally.Util.failed = 0 && tally.Util.attempted > 0 in
  print_endline
    (Service.Jsonp.to_line
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int (max 1 tally.Util.attempted));
            ("failed", J.Int tally.Util.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
