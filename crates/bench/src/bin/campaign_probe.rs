//! Checkpoint/restore smoke for the fault-tolerant HMC campaign, driven
//! by ci.sh.
//!
//! Runs the same small distributed pure-gauge campaign twice — once clean
//! and once with a rank killed mid-trajectory (`QDP_FAULT` overrides the
//! default kill spec) — and prints machine-readable `key value` lines.
//! ci.sh asserts that the faulted run actually restored from checkpoints
//! (`restores >= 1`) and that its plaquette history and Metropolis
//! decisions are *bit-identical* to the clean run.
//!
//! Checkpoints land under `QDP_CHECKPOINT_DIR` when set, else a scratch
//! directory under the system temp dir.
//!
//! Run: `cargo run --release -p qdp-bench --bin campaign_probe`

use chroma_mini::campaign::{run_campaign, CampaignConfig};
use chroma_mini::checkpoint;
use qdp_comm::FaultPlan;
use qdp_core::QdpConfig;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("qdp_campaign_probe_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn main() {
    let env = QdpConfig::from_env();
    let mut cfg = CampaignConfig::new([4, 4, 4, 4], [2, 1, 1, 2], scratch("clean"));
    cfg.n_traj = 2;
    cfg.n_steps = 2;
    cfg.dt = 0.1;
    cfg.deadline_ms = Some(1000);

    let clean = run_campaign(&cfg, &FaultPlan::new()).expect("clean campaign failed");

    // kill rank 2 mid-trajectory unless QDP_FAULT says otherwise
    let plan = if env.fault.is_empty() {
        FaultPlan::new().kill_after_messages(2, 40)
    } else {
        env.fault.clone()
    };
    let fault_dir = checkpoint::dir_from(&env, &scratch("faulted"));
    let mut faulted_cfg = cfg.clone();
    faulted_cfg.checkpoint_dir = fault_dir.clone();
    let faulted = run_campaign(&faulted_cfg, &plan).expect("faulted campaign failed");

    let plaq_match = clean
        .plaquettes
        .iter()
        .map(|v| v.to_bits())
        .eq(faulted.plaquettes.iter().map(|v| v.to_bits()));
    let accept_match = clean.accepts == faulted.accepts;
    let ckpt_files = std::fs::read_dir(&fault_dir)
        .map(|d| d.filter_map(|e| e.ok()).count())
        .unwrap_or(0);

    println!("trajectories {}", clean.plaquettes.len());
    println!("restores {}", faulted.restores);
    println!("plaq_bits_match {}", u8::from(plaq_match));
    println!("accept_match {}", u8::from(accept_match));
    println!("checkpoint_files {ckpt_files}");
    println!("final_plaquette {:.12}", clean.plaquettes.last().unwrap());

    let _ = std::fs::remove_dir_all(&cfg.checkpoint_dir);
    let _ = std::fs::remove_dir_all(&fault_dir);
}
