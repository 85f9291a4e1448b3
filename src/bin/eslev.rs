//! The ESL-EV interactive shell.
//!
//! ```text
//! $ cargo run --bin eslev
//! eslev> CREATE STREAM R1 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
//! eslev> .scenario packing 50
//! eslev> SELECT COUNT(R1*), R2.tagid FROM R1, R2 WHERE SEQ(R1*, R2) MODE CHRONICLE;
//! eslev> .poll 0
//! ```
//!
//! All logic lives in [`eslev::repl`]; this binary is the stdin loop.
//! Pass `--shards N` to run the shell over an EPC-partitioned
//! [`eslev::dsms::shard::ShardedEngine`] (inspect it with `SHOW SHARDS`),
//! and `--share` to run fingerprint-equal queries through one chain.

use eslev::repl::Repl;
use std::io::{BufRead, Write};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut shards: Option<usize> = None;
    let mut share = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => shards = Some(n),
                _ => {
                    eprintln!("--shards needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--share" => share = true,
            other => {
                eprintln!("unknown argument `{other}` (supported: --shards N, --share)");
                std::process::exit(2);
            }
        }
    }
    let mut repl = match Repl::with_config(shards, share) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    match shards {
        Some(n) => println!("ESL-EV shell ({n} shards) — .help for commands, .quit to exit"),
        None => println!("ESL-EV shell — .help for commands, .quit to exit"),
    }
    print!("eslev> ");
    let _ = stdout.flush();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if trimmed == ".quit" || trimmed == ".exit" {
            println!("bye.");
            break;
        }
        let out = repl.line(&line);
        if !out.is_empty() {
            print!("{out}");
            if !out.ends_with('\n') {
                println!();
            }
        }
        print!("eslev> ");
        let _ = stdout.flush();
    }
}
