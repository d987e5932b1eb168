//! Trajectory checkpoint/restart for HMC campaigns.
//!
//! Each rank writes one JSON file per campaign directory
//! (`hmc_rank<r>.ckpt.json`) holding everything needed to replay the
//! in-flight trajectory bit-exactly: the gauge links, the refreshed
//! momenta, both RNG states (per-rank momenta stream and the shared
//! Metropolis stream), the trajectory index and the completed-trajectory
//! history. Files are written atomically — temp file + `rename` — the
//! same crash-safety policy as `qdp-jit`'s persist store, so a rank
//! killed mid-write can never leave a torn checkpoint behind.
//!
//! Every `f64` is stored as its 16-hex-digit IEEE-754 bit pattern inside
//! a JSON string. The in-tree JSON reader only exposes numbers as `f64`
//! through the decimal grammar, which cannot round-trip all bit patterns;
//! hex bits make restore *bit-exact*, which the restart-equivalence
//! guarantee (restored campaign == uninterrupted campaign) depends on.
//!
//! A missing file is a cold start. A corrupt, version-skewed or
//! geometry-mismatched file is counted under `checkpoint.corrupt` and
//! treated as missing rather than trusted.

use qdp_core::prelude::*;
use qdp_rng::StdRng;
use qdp_telemetry::{json, Telemetry};
use qdp_types::{Complex, PMatrix, PScalar};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Bump when the on-disk layout changes; loaders reject other versions.
pub const FORMAT_VERSION: u64 = 1;

/// Environment override for where campaign checkpoints live.
pub const ENV_DIR: &str = "QDP_CHECKPOINT_DIR";

/// Checkpoint location for one rank.
pub fn checkpoint_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("hmc_rank{rank}.ckpt.json"))
}

/// The campaign checkpoint directory: the configured override when set,
/// else `default`.
pub fn dir_from(cfg: &qdp_core::QdpConfig, default: &Path) -> PathBuf {
    cfg.checkpoint_dir
        .clone()
        .unwrap_or_else(|| default.to_path_buf())
}

/// Borrowed view of the state a rank checkpoints at trajectory start
/// (momenta already refreshed, RNG states already advanced past the
/// refresh, Metropolis draw not yet taken).
pub struct CheckpointView<'a> {
    /// Index of the trajectory about to run.
    pub next_traj: usize,
    /// Per-rank momenta RNG, post-refresh.
    pub rng: &'a StdRng,
    /// Shared Metropolis RNG (identical on every rank).
    pub metro_rng: &'a StdRng,
    /// Local gauge links.
    pub gauge: &'a Multi1d<LatticeColorMatrix<f64>>,
    /// Refreshed momenta for trajectory `next_traj`.
    pub momenta: &'a Multi1d<LatticeColorMatrix<f64>>,
    /// Plaquette after each completed trajectory.
    pub history_plaq: &'a [f64],
    /// Metropolis decision of each completed trajectory.
    pub history_accept: &'a [bool],
}

/// Owned state restored from disk.
pub struct CheckpointData {
    /// Index of the trajectory to (re)run.
    pub next_traj: usize,
    /// Momenta RNG state.
    pub rng_state: [u64; 4],
    /// Metropolis RNG state.
    pub metro_state: [u64; 4],
    /// Local gauge links.
    pub gauge: Multi1d<LatticeColorMatrix<f64>>,
    /// Momenta for trajectory `next_traj`.
    pub momenta: Multi1d<LatticeColorMatrix<f64>>,
    /// Plaquette history.
    pub history_plaq: Vec<f64>,
    /// Accept history.
    pub history_accept: Vec<bool>,
}

fn state_hex(s: [u64; 4]) -> String {
    s.iter().map(|w| format!("{w:016x}")).collect()
}

fn state_from_hex(s: &str) -> Option<[u64; 4]> {
    if s.len() != 64 || !s.is_ascii() {
        return None;
    }
    let mut out = [0u64; 4];
    for (i, w) in out.iter_mut().enumerate() {
        *w = u64::from_str_radix(&s[i * 16..(i + 1) * 16], 16).ok()?;
    }
    Some(out)
}

fn reals_hex(vals: impl Iterator<Item = f64>) -> String {
    let mut s = String::new();
    for v in vals {
        s.push_str(&format!("{:016x}", v.to_bits()));
    }
    s
}

fn reals_from_hex(s: &str) -> Option<Vec<f64>> {
    if s.len() % 16 != 0 || !s.is_ascii() {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 16);
    for k in 0..s.len() / 16 {
        out.push(f64::from_bits(
            u64::from_str_radix(&s[k * 16..(k + 1) * 16], 16).ok()?,
        ));
    }
    Some(out)
}

/// A colour-matrix field as 18 bit-pattern hex words per site
/// (row-major re/im).
fn field_hex(l: &LatticeColorMatrix<f64>) -> String {
    let vol = l.context().geometry().vol();
    let mut s = String::with_capacity(vol * 18 * 16);
    for site in 0..vol {
        let m = l.get(site).0;
        for i in 0..3 {
            for j in 0..3 {
                s.push_str(&format!("{:016x}", m.0[i][j].re.to_bits()));
                s.push_str(&format!("{:016x}", m.0[i][j].im.to_bits()));
            }
        }
    }
    s
}

fn field_from_hex(ctx: &Arc<QdpContext>, hex: &str) -> Option<LatticeColorMatrix<f64>> {
    let vol = ctx.geometry().vol();
    let vals = reals_from_hex(hex)?;
    if vals.len() != vol * 18 {
        return None;
    }
    Some(LatticeColorMatrix::<f64>::from_fn(ctx, |site| {
        PScalar(PMatrix::from_fn(|i, j| {
            let base = site * 18 + (i * 3 + j) * 2;
            Complex::new(vals[base], vals[base + 1])
        }))
    }))
}

/// Atomically write rank `rank`'s checkpoint. Counts `checkpoint.writes`.
pub fn save(
    dir: &Path,
    rank: usize,
    n_ranks: usize,
    view: &CheckpointView<'_>,
    tel: &Telemetry,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let dims = view.gauge[0].context().geometry().dims();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"version\": {FORMAT_VERSION},\n"));
    s.push_str(&format!("  \"rank\": {rank},\n"));
    s.push_str(&format!("  \"n_ranks\": {n_ranks},\n"));
    s.push_str(&format!(
        "  \"local_dims\": [{}, {}, {}, {}],\n",
        dims[0], dims[1], dims[2], dims[3]
    ));
    s.push_str(&format!("  \"next_traj\": {},\n", view.next_traj));
    s.push_str(&format!("  \"rng\": \"{}\",\n", state_hex(view.rng.state())));
    s.push_str(&format!(
        "  \"metro_rng\": \"{}\",\n",
        state_hex(view.metro_rng.state())
    ));
    for (key, fields) in [("gauge", view.gauge), ("momenta", view.momenta)] {
        s.push_str(&format!("  \"{key}\": [\n"));
        for mu in 0..4 {
            let sep = if mu == 3 { "" } else { "," };
            s.push_str(&format!("    \"{}\"{sep}\n", field_hex(&fields[mu])));
        }
        s.push_str("  ],\n");
    }
    s.push_str(&format!(
        "  \"history_plaq\": \"{}\",\n",
        reals_hex(view.history_plaq.iter().copied())
    ));
    let accepts: String = view
        .history_accept
        .iter()
        .map(|&a| if a { '1' } else { '0' })
        .collect();
    s.push_str(&format!("  \"history_accept\": \"{accepts}\"\n"));
    s.push_str("}\n");

    let path = checkpoint_path(dir, rank);
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, s)?;
    std::fs::rename(&tmp, &path)?;
    tel.count("checkpoint.writes", 1);
    Ok(path)
}

/// Load rank `rank`'s checkpoint. `None` means cold start: no file, or a
/// file that failed version/ownership/geometry validation or parsing
/// (counted under `checkpoint.corrupt`). Success counts
/// `checkpoint.restores`.
pub fn load(
    dir: &Path,
    rank: usize,
    n_ranks: usize,
    ctx: &Arc<QdpContext>,
) -> Option<CheckpointData> {
    let path = checkpoint_path(dir, rank);
    let text = std::fs::read_to_string(&path).ok()?;
    match parse_checkpoint(&text, rank, n_ranks, ctx) {
        Some(data) => {
            ctx.telemetry().count("checkpoint.restores", 1);
            Some(data)
        }
        None => {
            ctx.telemetry().count("checkpoint.corrupt", 1);
            None
        }
    }
}

fn parse_checkpoint(
    text: &str,
    rank: usize,
    n_ranks: usize,
    ctx: &Arc<QdpContext>,
) -> Option<CheckpointData> {
    let v = json::parse(text).ok()?;
    if v.get("version")?.as_f64()? != FORMAT_VERSION as f64 {
        return None;
    }
    if v.get("rank")?.as_f64()? != rank as f64 {
        return None;
    }
    if v.get("n_ranks")?.as_f64()? != n_ranks as f64 {
        return None;
    }
    let dims = v.get("local_dims")?.as_array()?;
    let geom = ctx.geometry().dims();
    if dims.len() != 4 {
        return None;
    }
    for mu in 0..4 {
        if dims[mu].as_f64()? != geom[mu] as f64 {
            return None;
        }
    }
    let next_traj = v.get("next_traj")?.as_f64()? as usize;
    let rng_state = state_from_hex(v.get("rng")?.as_str()?)?;
    let metro_state = state_from_hex(v.get("metro_rng")?.as_str()?)?;

    let mut fields = Vec::new();
    for key in ["gauge", "momenta"] {
        let arr = v.get(key)?.as_array()?;
        if arr.len() != 4 {
            return None;
        }
        let mut dirs = Vec::with_capacity(4);
        for a in arr {
            dirs.push(field_from_hex(ctx, a.as_str()?)?);
        }
        fields.push(Multi1d(dirs));
    }
    let momenta = fields.pop()?;
    let gauge = fields.pop()?;

    let history_plaq = reals_from_hex(v.get("history_plaq")?.as_str()?)?;
    let acc_str = v.get("history_accept")?.as_str()?;
    if acc_str.len() != history_plaq.len() || acc_str.chars().any(|c| c != '0' && c != '1') {
        return None;
    }
    let history_accept = acc_str.chars().map(|c| c == '1').collect();

    Some(CheckpointData {
        next_traj,
        rng_state,
        metro_state,
        gauge,
        momenta,
        history_plaq,
        history_accept,
    })
}
