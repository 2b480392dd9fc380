type t = {
  name : string;
  delay_min : int;
  delay_max : int;
  jitter : int;
  fifo : bool;
  chunk_min : int;
  chunk_max : int;
  drop : float;
  duplicate : float;
  truncate : float;
  corrupt : float;
  conn_drop : float;
}

let perfect =
  { name = "perfect";
    delay_min = 1;
    delay_max = 1;
    jitter = 0;
    fifo = true;
    chunk_min = 65536;
    chunk_max = 65536;
    drop = 0.0;
    duplicate = 0.0;
    truncate = 0.0;
    corrupt = 0.0;
    conn_drop = 0.0 }

let rechunking = { perfect with name = "rechunking"; chunk_min = 1; chunk_max = 64 }

let delaying =
  { perfect with name = "delaying"; delay_min = 50; delay_max = 800; chunk_min = 32; chunk_max = 512 }
