//! Output fingerprints pinned at [`PIN_SEED`], per workload and size.
//!
//! Each part is the FNV-1a 64 of one output: a figure's CSV, the
//! concatenated extension tables, a scenario family's CSV, or an arena's
//! summary line. The full-size figure CSVs are byte-identical to what
//! `imobif all --flows 100 --seed 2025` writes. At any other seed the rule
//! is only that every round reproduces the warm-up round.

use crate::workload::{Fingerprint, Workload};

/// The seed the pins hold for.
pub const PIN_SEED: u64 = 2025;

/// `fig6::run(8, 2025).to_csv()`, pinned since before the observability
/// layer: `--smoke`'s `repro_all` must reproduce it.
pub const FIG6_SMOKE: u64 = 0x67fd_e585_6d82_96c6;

const REPRO_ALL: [(&str, u64); 5] = [
    ("fig5", 0x4730_c105_c454_5856),
    ("fig6", 0x7f71_1302_1e89_0ff7),
    ("fig7", 0xe51b_b10e_7f94_be0f),
    ("fig8", 0x62dd_31a7_984a_83fa),
    ("ext", 0xe1f4_1c58_08f9_6069),
];

const REPRO_ALL_SMOKE: [(&str, u64); 5] = [
    ("fig5", 0x4730_c105_c454_5856),
    ("fig6", FIG6_SMOKE),
    ("fig7", 0x93bd_ed9d_4f59_3539),
    ("fig8", 0xf5c8_8a51_f1e2_289d),
    ("ext", 0x30c4_718b_96c5_21c0),
];

const FAMILIES: [(&str, u64); 4] = [
    ("churn", 0x390e_0ef6_c95b_9a20),
    ("clustered_urban", 0x954d_8f69_d4df_d15f),
    ("hetero_batteries", 0x94f1_8254_b68d_09fc),
    ("small_world", 0xa39b_a621_9a2c_f089),
];

const FAMILIES_SMOKE: [(&str, u64); 4] = [
    ("churn", 0x66e0_8275_fb41_7c1d),
    ("clustered_urban", 0x2262_8735_e09c_e9b9),
    ("hetero_batteries", 0x8384_987d_cb51_038d),
    ("small_world", 0xe26d_940a_d51a_404f),
];

/// The pinned fingerprint of `workload` at its full (`smoke == false`) or
/// `--smoke` size.
#[must_use]
pub fn lookup(workload: Workload, smoke: bool) -> Fingerprint {
    let parts: &[(&str, u64)] = match (workload, smoke) {
        (Workload::ReproAll, false) => &REPRO_ALL,
        (Workload::ReproAll, true) => &REPRO_ALL_SMOKE,
        (Workload::ScenarioFamilies, false) => &FAMILIES,
        (Workload::ScenarioFamilies, true) => &FAMILIES_SMOKE,
        (Workload::Arena100k, false) => &[("summary", 0x6cbf_b3b5_4499_3138)],
        (Workload::Arena100k, true) => &[("summary", 0x7fa6_74d2_b856_1f1e)],
        (Workload::Arena5kSerial, false) => &[("summary", 0x660b_aba6_2886_c0d7)],
        (Workload::Arena5kSerial, true) => &[("summary", 0x0d39_4dbf_d02f_62d6)],
    };
    parts.iter().map(|&(p, f)| (p.to_string(), f)).collect()
}
