(** The router's placement key.

    The shard key canonicalises the request (recursively sorted object
    fields), so field order on the wire never splits identical requests,
    and drops pure delivery options ([trace], [progress],
    [deadline_s]): they don't change the answer, so they must not change
    the owning worker.  Identical requests therefore meet on one worker,
    whose scheduler coalesces them. *)

val canon : Tiling_obs.Json.t -> Tiling_obs.Json.t
(** Sort object fields recursively; leaves and list order untouched. *)

val shard_key : meth:string -> params:Tiling_obs.Json.t -> string
(** Rendezvous-hash input for worker selection. *)
