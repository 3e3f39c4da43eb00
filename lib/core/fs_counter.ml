(* Which threads hold a line in written state, indexed by line.  Up to 62
   threads the per-line mask is a single immediate int (the historical fast
   path); beyond that it is a Cachesim.Bitset.  Either way the 1-to-All
   comparison is a constant-time popcount and the hot path allocates
   nothing (Small path) or only one bitset per distinct line (Big path). *)

type masks =
  | Small of int Cachesim.Int_table.t  (* line -> bitmask of writer-holders *)
  | Big of Cachesim.Bitset.t Cachesim.Int_table.t

type t = {
  states : Thread_cache_state.t array;
  masks : masks;
  (* per-thread line -> index of the reference whose write last put the
     line in written state there; only consulted for threads whose mask
     bit is set, so stale entries after eviction are harmless (a set
     mask bit implies a later written insert refreshed the entry) *)
  wref : int Cachesim.Int_table.t array;
}

let small_limit = 62

let create ~threads ~capacity =
  if threads < 1 then invalid_arg "Fs_counter.create: threads < 1";
  {
    states = Array.init threads (fun _ -> Thread_cache_state.create ~capacity);
    masks =
      (if threads <= small_limit then
         Small (Cachesim.Int_table.create ~initial:4096 ())
       else Big (Cachesim.Int_table.create ~initial:4096 ()));
    wref = Array.init threads (fun _ -> Cachesim.Int_table.create ~initial:64 ());
  }

let clear_bit t line tid =
  match t.masks with
  | Small tbl ->
      let s = Cachesim.Int_table.find_slot tbl line in
      if s >= 0 then begin
        let m = Cachesim.Int_table.value_at tbl s land lnot (1 lsl tid) in
        if m = 0 then ignore (Cachesim.Int_table.remove tbl line)
        else Cachesim.Int_table.set_at tbl s m
      end
  | Big tbl ->
      let s = Cachesim.Int_table.find_slot tbl line in
      if s >= 0 then Cachesim.Bitset.unset (Cachesim.Int_table.value_at tbl s) tid

let process t ~me ~line ~written =
  let prior_written = Thread_cache_state.holds_modified t.states.(me) line in
  let evicted = Thread_cache_state.insert_fast t.states.(me) ~line ~written in
  (* the evicted line is never [line] itself, so its mask update cannot
     move [line]'s table entry once we probe below *)
  if evicted <> Thread_cache_state.no_line then clear_bit t evicted me;
  match t.masks with
  | Small tbl ->
      let s = Cachesim.Int_table.find_slot tbl line in
      let mask = if s >= 0 then Cachesim.Int_table.value_at tbl s else 0 in
      let fs = Cachesim.Bitset.popcount (mask land lnot (1 lsl me)) in
      if written || prior_written then
        if s >= 0 then Cachesim.Int_table.set_at tbl s (mask lor (1 lsl me))
        else Cachesim.Int_table.set tbl line (mask lor (1 lsl me));
      fs
  | Big tbl ->
      let s = Cachesim.Int_table.find_slot tbl line in
      let fs =
        if s >= 0 then
          Cachesim.Bitset.count_excluding (Cachesim.Int_table.value_at tbl s) me
        else 0
      in
      if written || prior_written then begin
        let bs =
          if s >= 0 then Cachesim.Int_table.value_at tbl s
          else begin
            let bs = Cachesim.Bitset.create ~bits:(Array.length t.states) in
            Cachesim.Int_table.set tbl line bs;
            bs
          end
        in
        Cachesim.Bitset.set bs me
      end;
      fs

(* [process] plus provenance: before inserting, each other thread
   holding [line] in written state yields one FS case recorded into
   [sink] as (that thread, its last writing reference) -> (me, ref_id).
   Counting is bit-identical to [process]; the extra work is O(threads)
   only on accesses that actually trigger FS cases. *)
let process_attr t ~me ~line ~written ~ref_id ~step sink =
  let prior_written = Thread_cache_state.holds_modified t.states.(me) line in
  let evicted = Thread_cache_state.insert_fast t.states.(me) ~line ~written in
  if evicted <> Thread_cache_state.no_line then clear_bit t evicted me;
  let fs =
    match t.masks with
    | Small tbl ->
        let s = Cachesim.Int_table.find_slot tbl line in
        let mask = if s >= 0 then Cachesim.Int_table.value_at tbl s else 0 in
        let others = mask land lnot (1 lsl me) in
        let fs = Cachesim.Bitset.popcount others in
        if fs > 0 then
          for j = 0 to Array.length t.states - 1 do
            if others land (1 lsl j) <> 0 then
              Attrib.record sink ~step ~line ~writer_tid:j
                ~writer_ref:(Cachesim.Int_table.get t.wref.(j) line ~default:(-1))
                ~victim_tid:me ~victim_ref:ref_id
          done;
        if written || prior_written then
          if s >= 0 then Cachesim.Int_table.set_at tbl s (mask lor (1 lsl me))
          else Cachesim.Int_table.set tbl line (mask lor (1 lsl me));
        fs
    | Big tbl ->
        let s = Cachesim.Int_table.find_slot tbl line in
        let fs =
          if s >= 0 then
            Cachesim.Bitset.count_excluding (Cachesim.Int_table.value_at tbl s)
              me
          else 0
        in
        if fs > 0 then begin
          let bs = Cachesim.Int_table.value_at tbl s in
          for j = 0 to Array.length t.states - 1 do
            if j <> me && Cachesim.Bitset.mem bs j then
              Attrib.record sink ~step ~line ~writer_tid:j
                ~writer_ref:(Cachesim.Int_table.get t.wref.(j) line ~default:(-1))
                ~victim_tid:me ~victim_ref:ref_id
          done
        end;
        if written || prior_written then begin
          let bs =
            if s >= 0 then Cachesim.Int_table.value_at tbl s
            else begin
              let bs = Cachesim.Bitset.create ~bits:(Array.length t.states) in
              Cachesim.Int_table.set tbl line bs;
              bs
            end
          in
          Cachesim.Bitset.set bs me
        end;
        fs
  in
  if written then Cachesim.Int_table.set t.wref.(me) line ref_id;
  fs

let invalidate_others t ~me ~line =
  Array.iteri
    (fun j s ->
      if j <> me then
        if Thread_cache_state.invalidate s line then clear_bit t line j)
    t.states

let state t i = t.states.(i)
let threads t = Array.length t.states
