//! Prints the pinned `replay-plan` DES makespans for a range of seeds,
//! one `seed kind bits` line per trace, in the format
//! `refs/replay_plan.txt` holds:
//!
//! ```text
//! cargo run --release --bin pin_refs -- 0 255 > refs/replay_plan.txt
//! ```
//!
//! Regenerate only when the simulator is meant to change its answers.

fn main() {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("seed bounds are integers"))
        .collect();
    let [from, to] = args[..] else {
        eprintln!("usage: pin_refs FIRST_SEED LAST_SEED");
        std::process::exit(2);
    };
    for seed in from..=to {
        match cpm_perfbench::replay_plan::reference_lines(seed) {
            Ok(lines) => lines.iter().for_each(|l| println!("{l}")),
            Err(e) => {
                eprintln!("seed {seed}: {e}");
                std::process::exit(1);
            }
        }
    }
}
