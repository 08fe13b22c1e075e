//! The `imobif` binary: the experiment CLI ([`imobif_experiments::cli`]) —
//! figures, scenarios, `trace` and `spans` tooling and `manifest-check`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(imobif_experiments::cli::run(&argv));
}
