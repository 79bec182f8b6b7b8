type saved = { labels : string list; ids : (string * int) option }

let key : saved Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { labels = []; ids = None })

let with_label label f =
  let saved = Domain.DLS.get key in
  Domain.DLS.set key { saved with labels = label :: saved.labels };
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

let get () =
  match (Domain.DLS.get key).labels with [] -> None | label :: _ -> Some label

let with_ids ~trace ~unit_id f =
  let saved = Domain.DLS.get key in
  Domain.DLS.set key { saved with ids = Some (trace, unit_id) };
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

let ids () = (Domain.DLS.get key).ids
let capture () = Domain.DLS.get key

let install saved = Domain.DLS.set key saved

let with_captured saved f =
  let prev = Domain.DLS.get key in
  install saved;
  Fun.protect ~finally:(fun () -> install prev) f
