//! Profiling driver: loops one hot-path section (cold lift or warm
//! store replay) long enough for a sampling profiler to see it.
//!
//! ```text
//! cargo run --release -p hgl-bench --bin profile_hotpath -- cold 200
//! cargo run --release -p hgl-bench --bin profile_hotpath -- warmstore 200
//! ```

#![forbid(unsafe_code)]

use hgl_core::Lifter;
use hgl_corpus::xen::gen_study_binary;
use hgl_store::Store;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("cold");
    let iters: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100);
    let bins: Vec<_> =
        (0..24u64).map(|i| gen_study_binary(0x9e37_79b9_7f4a_7c15 ^ i, i % 3 == 2)).collect();

    match mode {
        "cold" => {
            let mut total = 0usize;
            for _ in 0..iters {
                for b in &bins {
                    total += Lifter::new(b).workers(1).lift_all().result.functions.len();
                }
            }
            eprintln!("cold: {total} functions");
        }
        "warmstore" => {
            let root = std::env::temp_dir().join(format!("hgl-prof-store-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let store = Store::open(&root).expect("open store");
            for b in &bins {
                let _ = Lifter::new(b).with_store(&store).lift_all();
            }
            let mut total = 0usize;
            for _ in 0..iters {
                let warm = Store::open(&root).expect("reopen store");
                for b in &bins {
                    total += Lifter::new(b).with_store(&warm).lift_all().result.functions.len();
                }
            }
            let _ = std::fs::remove_dir_all(&root);
            eprintln!("warmstore: {total} functions");
        }
        other => {
            eprintln!("unknown mode {other}; use cold|warmstore");
            std::process::exit(2);
        }
    }
}
