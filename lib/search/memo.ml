module Key = struct
  type t = { hash : int; values : int array }

  (* FNV-1a-style fold over the elements plus the length, strengthened
     with an avalanche step per word: decoded candidate vectors are short
     and their entries tiny (tile sizes, padding amounts), so a plain
     multiplicative fold would cluster in the low bits. *)
  let mix h x =
    let x = x * 0x9E3779B1 in
    let x = x lxor (x lsr 16) in
    (h lxor x) * 0x100000001b3

  let hash_values a =
    let h = ref (mix 0x811c9dc5 (Array.length a)) in
    for i = 0 to Array.length a - 1 do
      h := mix !h a.(i)
    done;
    !h land max_int

  let of_values values =
    (* Copy: callers reuse and mutate candidate buffers freely. *)
    let values = Array.copy values in
    { hash = hash_values values; values }

  let values k = k.values
  let hash k = k.hash

  let equal a b =
    a.hash = b.hash
    &&
    let n = Array.length a.values in
    n = Array.length b.values
    &&
    let i = ref 0 in
    while !i < n && a.values.(!i) = b.values.(!i) do
      incr i
    done;
    !i = n
end

module Table = Hashtbl.Make (Key)

type 'v tier = { find : Key.t -> 'v option; save : Key.t -> 'v -> unit }

type 'v t = {
  table : 'v Table.t;
  lock : Mutex.t;
  mutable tier : 'v tier option;
}

let create ?(size = 512) () =
  { table = Table.create size; lock = Mutex.create (); tier = None }

(* [tier] is written by the daemon while other domains are already probing
   the memo (the disk store attaches once the request's fingerprint is
   known), so every access goes through [t.lock]; each operation reads the
   field exactly once and then works on its snapshot. *)
let set_tier t tier = Mutex.protect t.lock (fun () -> t.tier <- tier)

let find_opt t k =
  (* The probe cannot raise, so the lock needs no [Mutex.protect] (whose
     closure and result tuple this path would allocate per candidate). *)
  Mutex.lock t.lock;
  let hit = Table.find_opt t.table k and tier = t.tier in
  Mutex.unlock t.lock;
  match hit with
  | Some _ -> hit
  | None -> (
      match tier with
      | None -> None
      | Some tier -> (
          (* Tier lookups run outside the lock: they may do IO and must not
             stall other domains probing the in-memory table.  A promoted
             value is cached in the table but never re-saved; the insert
             cannot raise either, so it too takes the lock without a
             closure. *)
          match tier.find k with
          | Some v as r ->
              Mutex.lock t.lock;
              Table.replace t.table k v;
              Mutex.unlock t.lock;
              r
          | None -> None))

let set t k v =
  let tier =
    Mutex.protect t.lock (fun () ->
        Table.replace t.table k v;
        t.tier)
  in
  match tier with None -> () | Some tier -> tier.save k v

let length t = Mutex.protect t.lock (fun () -> Table.length t.table)
