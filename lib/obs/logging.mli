(** Leveled stderr logging for the CLI and experiments.

    The libraries already log through {!Logs} sources ([tiling.core],
    [tiling.fuzz], ...); with no reporter installed those messages go
    nowhere, which is the default.  [setup] installs an [Fmt]-based
    reporter on stderr and sets the global level, turning them on. *)

val level_of_string : string -> (Logs.level option, string) result
(** Accepts [off], [error], [warn] / [warning], [info], [debug]. *)

val level_names : string list
(** The accepted spellings, for CLI documentation. *)

val setup : Logs.level option -> unit
(** Install a stderr reporter (timestamps relative to process start, source
    and level tags) and set the global log level.  [None] means logging
    stays off and no reporter is installed. *)
