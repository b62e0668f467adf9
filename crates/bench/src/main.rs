//! `bench <name>... | all | list` — regenerates the paper's tables and
//! figures (Sec. 4) and the ablations, one `BENCH_<name>.json` each,
//! from the table in [`bench::experiments`].

use bench::experiments::{find, Experiment, EXPERIMENTS};
use bench::report;

fn usage(problem: &str) -> ! {
    eprintln!("bench: {problem}\nusage: bench <name>... | all | list\nexperiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:<22}{}", e.name, e.title);
    }
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Experiment> = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => usage("no experiment named"),
        ["list"] => {
            for e in EXPERIMENTS {
                println!("{}", e.name);
            }
            return;
        }
        ["all"] => EXPERIMENTS.iter().collect(),
        ref names => names
            .iter()
            .map(|name| {
                find(name).unwrap_or_else(|| usage(&format!("unknown experiment '{name}'")))
            })
            .collect(),
    };
    for e in selected {
        let before = report::begin();
        let rows = (e.run)();
        report::publish(e.name, e.title, &rows, &before);
    }
}
