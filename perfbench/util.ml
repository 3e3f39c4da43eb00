(* Statistics, process helpers and result bookkeeping shared by the
   workloads. *)

let now = Unix.gettimeofday

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [q] in (0, 100]. *)
let percentile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The highest percentile of a fixed ladder with at least ten samples
   beyond it; the ladder's steps are far apart so the choice does not
   flip between runs of similar length. *)
let tail_ladder = [ 99.9; 99.; 95.; 90.; 50. ]

let tail xs =
  let n = float_of_int (List.length xs) in
  let q =
    match List.find_opt (fun q -> n *. (1. -. (q /. 100.)) >= 10.) tail_ladder with
    | Some q -> q
    | None -> 50.
  in
  (q, percentile xs q)

let sum = List.fold_left ( +. ) 0.

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

(* Peak resident set ([VmHWM]) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match read_file path with
  | exception Sys_error _ -> 0.
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        0. (String.split_on_char '\n' s)

(* The host's CPU time counters from [/proc/stat] (all CPUs, in ticks):
   (steal, total).  Under a hypervisor, steal is time a virtual CPU was
   ready to run but the host ran something else. *)
let cpu_times () =
  match read_file "/proc/stat" with
  | exception Sys_error _ -> (0., 0.)
  | s -> (
      match String.split_on_char ' ' (List.hd (String.split_on_char '\n' s)) with
      | "cpu" :: rest -> (
          let f = List.filter_map float_of_string_opt rest in
          (* user nice system idle iowait irq softirq steal; guest time is
             already inside user *)
          match List.filteri (fun i _ -> i < 8) f with
          | [ _; _; _; _; _; _; _; steal ] as l -> (steal, sum l)
          | _ -> (0., 0.))
      | _ -> (0., 0.))

(* The share of CPU time stolen between two [cpu_times] readings. *)
let steal_share (s0, t0) (s1, t1) = if t1 > t0 then (s1 -. s0) /. (t1 -. t0) else 0.

(* Run [exe args] to completion and return its stdout. *)
let capture exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Ok (String.trim out)
  | _ -> Error (Printf.sprintf "%s %s failed" exe (String.concat " " args))

(* Failures: counted against attempts, the first few described on
   stderr. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok fmt =
  t.attempted <- t.attempted + 1;
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        t.failed <- t.failed + 1;
        if t.failed <= 10 then prerr_endline ("FAIL: " ^ msg)
      end)
    fmt

(* Substring search (the benchmark links no regex library). *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* Sorted distinct rule ids of the findings in a lint text report
   ([file:line:col: severity[rule]: message]). *)
let rule_ids output =
  List.filter_map
    (fun line ->
      List.find_map
        (fun sev ->
          let tag = sev ^ "[" in
          match find_sub line tag with
          | None -> None
          | Some i -> (
              let start = i + String.length tag in
              match String.index_from_opt line start ']' with
              | Some j -> Some (String.sub line start (j - start))
              | None -> None))
        [ "error"; "warning"; "note" ])
    (String.split_on_char '\n' output)
  |> List.sort_uniq compare
