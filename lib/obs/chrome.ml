let micros s = Json.Float (s *. 1e6)

let document events =
  Json.Obj
    [ ("displayTimeUnit", Json.String "ms"); ("traceEvents", Json.List events) ]

let complete ?(args = []) ~name ~cat ~ts ~dur ~pid ~tid () =
  Json.Obj
    ([
       ("name", Json.String name);
       ("cat", Json.String cat);
       ("ph", Json.String "X");
       ("ts", micros ts);
       ("dur", micros dur);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ match args with [] -> [] | args -> [ ("args", Json.Obj args) ])

let write path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')
