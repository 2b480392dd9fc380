let rec ascending cmp = function
  | a :: (b :: _ as rest) -> cmp a b < 0 && ascending cmp rest
  | [] | [ _ ] -> true

let sort_uniq cmp l = if ascending cmp l then l else List.sort_uniq cmp l
