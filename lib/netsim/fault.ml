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

let reordering =
  { perfect with
    name = "reordering";
    fifo = false;
    delay_min = 1;
    delay_max = 30;
    jitter = 120;
    chunk_min = 8;
    chunk_max = 128 }

let duplicating =
  { perfect with name = "duplicating"; duplicate = 0.15; chunk_min = 16; chunk_max = 256 }

let truncating =
  { perfect with name = "truncating"; truncate = 0.05; chunk_min = 16; chunk_max = 256 }

let corrupting =
  { perfect with name = "corrupting"; corrupt = 0.04; chunk_min = 32; chunk_max = 512 }

let lossy = { perfect with name = "lossy"; drop = 0.05; chunk_min = 16; chunk_max = 256 }

let flaky = { perfect with name = "flaky"; conn_drop = 0.03; chunk_min = 32; chunk_max = 512 }

let chaos =
  { name = "chaos";
    delay_min = 1;
    delay_max = 40;
    jitter = 80;
    fifo = false;
    chunk_min = 8;
    chunk_max = 192;
    drop = 0.02;
    duplicate = 0.02;
    truncate = 0.02;
    corrupt = 0.02;
    conn_drop = 0.015 }

let all =
  [ perfect; rechunking; delaying; reordering; duplicating; truncating; corrupting; lossy;
    flaky; chaos ]
