type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The C formatter behind [Printf]'s [%g], called without the format
   interpreter: the same bytes. *)
external format_float : string -> float -> string = "caml_format_float"

let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then None
  else
    (* [%.12g] if it round-trips, else [%.17g], which always does; kept
       JSON-valid (always with a '.' or exponent so it re-parses as a
       float). *)
    let s = format_float "%.12g" f in
    let s = if float_of_string s = f then s else format_float "%.17g" f in
    Some (if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0")

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> (
      match float_repr f with
      | None -> Buffer.add_string buf "null"
      | Some s -> Buffer.add_string buf s)
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

let rec pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f -> (
      match float_repr f with None -> Fmt.string ppf "null" | Some s -> Fmt.string ppf s)
  | String s ->
      let buf = Buffer.create (String.length s + 2) in
      escape buf s;
      Fmt.string ppf (Buffer.contents buf)
  | List [] -> Fmt.string ppf "[]"
  | List xs ->
      Fmt.pf ppf "@[<v 2>[@,%a@;<0 -2>]@]" Fmt.(list ~sep:(any ",@,") pp) xs
  | Obj [] -> Fmt.string ppf "{}"
  | Obj kvs ->
      let pp_field ppf (k, v) =
        let buf = Buffer.create (String.length k + 2) in
        escape buf k;
        Fmt.pf ppf "@[<hov 2>%s:@ %a@]" (Buffer.contents buf) pp v
      in
      Fmt.pf ppf "@[<v 2>{@,%a@;<0 -2>}@]"
        (Fmt.list ~sep:(Fmt.any ",@,") pp_field)
        kvs

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)

exception Parse_error of string

let default_max_depth = 512
let default_max_size = 64 * 1024 * 1024

let of_string ?(max_depth = default_max_depth) ?(max_size = default_max_size) s =
  let n = String.length s in
  let pos = ref 0 in
  let error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt in
  if n > max_size then
    Error (Printf.sprintf "input too large (%d bytes, limit %d)" n max_size)
  else
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> error "expected %c at offset %d, found %c" c !pos c'
    | None -> error "expected %c at offset %d, found end of input" c !pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else error "invalid literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then error "truncated \\u escape";
              let hex c =
                match c with
                | '0' .. '9' -> Char.code c - Char.code '0'
                | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
                | _ -> error "bad \\u escape at offset %d" !pos
              in
              let code =
                (hex s.[!pos] lsl 12)
                lor (hex s.[!pos + 1] lsl 8)
                lor (hex s.[!pos + 2] lsl 4)
                lor hex s.[!pos + 3]
              in
              pos := !pos + 4;
              (* Basic-multilingual-plane code points only; encode UTF-8. *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end;
              go ()
          | _ -> error "bad escape at offset %d" !pos)
      | Some c when Char.code c < 0x20 ->
          error "unescaped control character 0x%02x in string at offset %d"
            (Char.code c) !pos
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> error "bad number %S at offset %d" tok start
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> error "bad number %S at offset %d" tok start
  in
  let rec parse_value depth =
    if depth >= max_depth then
      error "nesting deeper than %d at offset %d" max_depth !pos;
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields_loop ()
            | _ -> expect '}'
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items_loop ()
            | _ -> expect ']'
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then error "trailing garbage at offset %d" !pos;
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
