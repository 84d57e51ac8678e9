//! The experiment harness: regenerates every experiment table of
//! DESIGN.md's experiment index (E1–E17).
//!
//! Usage:
//!
//! ```text
//! experiments all [--quick]
//! experiments <name> [--quick]    # e.g. spanner-size
//! experiments list
//! ```

use dsg_bench::{experiments, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let names: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let scale = Scale { quick };

    match names.first().copied() {
        None | Some("list") => {
            eprintln!("available experiments:");
            for name in experiments::ALL {
                eprintln!("  {name}");
            }
            eprintln!("\nrun with: experiments <name> [--quick]  or  experiments all [--quick]");
        }
        Some("all") => {
            let started = std::time::Instant::now();
            println!(
                "# Experiment suite ({} mode)",
                if quick { "quick" } else { "full" }
            );
            for name in experiments::ALL {
                let t0 = std::time::Instant::now();
                assert!(experiments::run(name, scale), "unknown experiment {name}");
                eprintln!("[{name}: {:.1}s]", t0.elapsed().as_secs_f64());
            }
            println!(
                "\n(total wall time: {:.1}s)",
                started.elapsed().as_secs_f64()
            );
        }
        Some(name) => {
            if !experiments::run(name, scale) {
                eprintln!("unknown experiment '{name}'; try 'experiments list'");
                std::process::exit(2);
            }
        }
    }
}
