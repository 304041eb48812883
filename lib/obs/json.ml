type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\000' .. '\031' ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest representation that parses back to the same float: JSON has
   no NaN/Infinity, so those degrade to null (and a report should never
   contain them anyway). *)
let float_repr x =
  if not (Float.is_finite x) then "null"
  else
    let s = Printf.sprintf "%.15g" x in
    let s = if float_of_string s = x then s else Printf.sprintf "%.17g" x in
    (* "1e3" and "1" are valid JSON ints; keep the float-ness explicit so
       parsing round-trips the constructor too *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let to_buffer ?(indent = true) buf json =
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float x -> Buffer.add_string buf (float_repr x)
    | String s -> escape_to buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          if indent then pad (depth + 1);
          emit (depth + 1) item)
        items;
      nl ();
      if indent then pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (key, value) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          if indent then pad (depth + 1);
          escape_to buf key;
          Buffer.add_string buf (if indent then ": " else ":");
          emit (depth + 1) value)
        fields;
      nl ();
      if indent then pad depth;
      Buffer.add_char buf '}'
  in
  emit 0 json

let to_string ?indent json =
  let buf = Buffer.create 1024 in
  to_buffer ?indent buf json;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then input.[!pos] else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if peek () <> c then error (Printf.sprintf "expected '%c'" c);
    advance ()
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub input !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else error ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then error "unterminated string";
      match input.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then error "unterminated escape";
         match input.[!pos] with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'b' -> Buffer.add_char buf '\b'; advance ()
         | 'f' -> Buffer.add_char buf '\012'; advance ()
         | 'u' ->
           advance ();
           if !pos + 4 > n then error "truncated \\u escape";
           let code =
             try int_of_string ("0x" ^ String.sub input !pos 4)
             with _ -> error "invalid \\u escape"
           in
           pos := !pos + 4;
           (* reports only ever escape control characters; encode the
              general case as UTF-8 anyway *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
         | c -> error (Printf.sprintf "invalid escape '\\%c'" c));
        loop ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = '-' then advance ();
    while match peek () with '0' .. '9' -> true | _ -> false do
      advance ()
    done;
    let is_float = ref false in
    if peek () = '.' then begin
      is_float := true;
      advance ();
      while match peek () with '0' .. '9' -> true | _ -> false do
        advance ()
      done
    end;
    (match peek () with
    | 'e' | 'E' ->
      is_float := true;
      advance ();
      (match peek () with '+' | '-' -> advance () | _ -> ());
      while match peek () with '0' .. '9' -> true | _ -> false do
        advance ()
      done
    | _ -> ());
    let text = String.sub input start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some x -> Float x
      | None -> error ("invalid number " ^ text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        (* out-of-range integer literal: fall back to float *)
        match float_of_string_opt text with
        | Some x -> Float x
        | None -> error ("invalid number " ^ text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          (key, value)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | '-' | '0' .. '9' -> parse_number ()
    | '\000' when !pos >= n -> error "unexpected end of input"
    | c -> error (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < n then error "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "JSON error at offset %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int n -> Some n
  | Float x when Float.is_integer x && Float.abs x < 1e15 ->
    Some (int_of_float x)
  | _ -> None

let to_float = function
  | Int n -> Some (float_of_int n)
  | Float x -> Some x
  | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_obj = function Obj fields -> Some fields | _ -> None
