module Metrics = Tiling_obs.Metrics
module Span = Tiling_obs.Span

let m_memo_hit = Metrics.counter "search.memo.hit"
let m_memo_miss = Metrics.counter "search.memo.miss"
let m_batches = Metrics.counter "search.eval.batches"

exception Cancelled

type t = {
  backend : Backend.t;
  domains : int;
  cache : Tiling_cache.Config.t;
  prepare : int array -> Tiling_ir.Nest.t * int array array;
  memo : float Memo.t;
  fresh : int Atomic.t;
  hits : int Atomic.t;
  mutable cancel : unit -> bool;
}

let create ?(backend = Backend.default) ?(domains = 1) ~cache ~prepare () =
  {
    backend;
    domains;
    cache;
    prepare;
    memo = Memo.create ();
    fresh = Atomic.make 0;
    hits = Atomic.make 0;
    cancel = (fun () -> false);
  }

let backend t = t.backend
let domains t = t.domains
let memo t = t.memo
let distinct t = Memo.length t.memo
let fresh t = Atomic.get t.fresh
let hits t = Atomic.get t.hits
let set_cancel t f = t.cancel <- f

let compute t values =
  if t.cancel () then raise Cancelled;
  ignore (Atomic.fetch_and_add t.fresh 1);
  Metrics.incr m_memo_miss;
  let nest, points = t.prepare values in
  t.backend.Backend.cost t.cache nest ~points

let hit t =
  ignore (Atomic.fetch_and_add t.hits 1);
  Metrics.incr m_memo_hit

let objective t values =
  let key = Memo.Key.of_values values in
  match Memo.find_opt t.memo key with
  | Some v ->
      hit t;
      v
  | None ->
      let v = compute t values in
      Memo.set t.memo key v;
      v

let evaluate_all t candidates =
  Span.with_ "search.eval.batch"
    ~attrs:[ ("candidates", Tiling_obs.Json.Int (Array.length candidates)) ]
  @@ fun () ->
  Metrics.incr m_batches;
  (* Per-batch dedup: a GA generation revisits individuals freely, so cost
     each distinct memo-missing candidate exactly once (in first-occurrence
     order, for a deterministic work list) and fan those out over domains.
     Every individual's value is served from the batch built here: [first]
     maps each distinct key to its first index, whose entry of [costs] is
     filled from the memo or the backend and copied to the duplicates at
     the end — keys are packed once per individual, and the batch never
     re-reads the shared memo, so concurrent memo churn cannot invalidate
     a batch. *)
  let n = Array.length candidates in
  let keys = Array.map Memo.Key.of_values candidates in
  let first : int Memo.Table.t = Memo.Table.create n in
  let source = Array.make n 0 in
  let costs = Array.make n 0. in
  let missing = ref [] in
  for i = 0 to n - 1 do
    let key = keys.(i) in
    match Memo.Table.find first key with
    | j ->
        hit t;
        source.(i) <- j
    | exception Not_found -> (
        Memo.Table.add first key i;
        source.(i) <- i;
        match Memo.find_opt t.memo key with
        | Some v ->
            hit t;
            costs.(i) <- v
        | None -> missing := i :: !missing)
  done;
  let missing = Array.of_list (List.rev !missing) in
  let fresh =
    Tiling_util.Par.map ~domains:t.domains
      (fun i -> compute t candidates.(i))
      missing
  in
  Array.iteri
    (fun k i ->
      Memo.set t.memo keys.(i) fresh.(k);
      costs.(i) <- fresh.(k))
    missing;
  for i = 0 to n - 1 do
    costs.(i) <- costs.(source.(i))
  done;
  costs
