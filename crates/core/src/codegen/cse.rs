//! DAG-level common-subexpression elimination over the backend walk.
//!
//! The expression unparser walks trees, so a subexpression appearing twice
//! — the same gauge link feeding both spin projections of a Wilson term,
//! a cloned shift subtree — is emitted (and its fields loaded) twice per
//! site. [`CseBackend`] wraps any [`Backend`] with hash-consing value
//! numbering: every scalar op is keyed on its opcode and operand value
//! numbers (leaf/component/shift-path for loads, parameter index for
//! scalars), and a repeated key returns the previously computed value
//! instead of re-running the inner backend. Driven by `PtxGen` this removes
//! the redundant `ld.global`s and arithmetic at the source; driven by
//! `CpuGen` the reference path takes exactly the same shortcut, keeping the
//! two bit-identical.
//!
//! Two deliberate non-features:
//!
//! * **No commutative canonicalization** — `a+b` and `b+a` get distinct
//!   keys. Reordering is value-preserving for finite floats but changes
//!   which NaN payload propagates, and the conformance contract is
//!   bit-exactness.
//! * **Scalar parameters key on their index, not their value** — kernels
//!   are reused across scalar values (a statement's key tokens name a
//!   scalar's slot, never its value), so two structurally equal subtrees
//!   referencing different scalar slots must never merge.
//!
//! Both tables are [`MemoMap`]s: they decide by exact key equality and are
//! never iterated, so the hasher changes only how fast a probe is.

use crate::codegen::backend::Backend;
use qdp_expr::ShiftDir;
use qdp_ptx::MemoMap;

/// Value-numbering key: opcodes over operand value numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CseKey {
    /// Constant, keyed on bits (`-0.0` ≠ `0.0`).
    Const(u64),
    Add(u32, u32),
    Sub(u32, u32),
    Mul(u32, u32),
    Neg(u32),
    Fma(u32, u32, u32),
    /// `(leaf, comp, interned shift path)` — the full address of a load.
    Load(usize, usize, u32),
    /// Scalar parameter slot (never keyed on the value; see module docs).
    Scalar(usize, bool),
}

/// A hash-consing CSE wrapper around any backend. `V` is a dense value
/// number indexing the inner backend's values.
pub struct CseBackend<B: Backend> {
    inner: B,
    /// Value-number → inner value.
    vals: Vec<B::V>,
    memo: MemoMap<CseKey, u32>,
    /// Current shift path (outermost first), mirrored from the walk.
    path: Vec<(usize, ShiftDir)>,
    /// Interned shift paths for load keys.
    path_ids: MemoMap<Vec<(usize, ShiftDir)>, u32>,
    /// Ops answered from the memo table.
    pub hits: u64,
    /// Ops actually run on the inner backend.
    pub misses: u64,
    fault: Option<&'static str>,
}

impl<B: Backend> CseBackend<B> {
    /// Wrap `inner` with an empty value table.
    pub fn new(inner: B) -> CseBackend<B> {
        let mut path_ids = MemoMap::default();
        path_ids.insert(Vec::new(), 0);
        CseBackend {
            inner,
            vals: Vec::new(),
            memo: MemoMap::default(),
            path: Vec::new(),
            path_ids,
            hits: 0,
            misses: 0,
            fault: None,
        }
    }

    /// Unwrap the inner backend (to read its staged output or finish the
    /// kernel it built).
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// The interned id of the current shift path: probed by slice, so the
    /// path is copied only when it is new.
    fn current_path_id(&mut self) -> u32 {
        if let Some(&id) = self.path_ids.get(&self.path[..]) {
            return id;
        }
        let id = self.path_ids.len() as u32;
        self.path_ids.insert(self.path.clone(), id);
        id
    }

    fn intern(&mut self, key: CseKey, compute: impl FnOnce(&mut B, &[B::V]) -> B::V) -> u32 {
        if let Some(&n) = self.memo.get(&key) {
            self.hits += 1;
            return n;
        }
        self.misses += 1;
        let v = compute(&mut self.inner, &self.vals);
        let n = self.vals.len() as u32;
        self.vals.push(v);
        self.memo.insert(key, n);
        n
    }
}

impl<B: Backend> Backend for CseBackend<B> {
    type V = u32;

    fn c(&mut self, v: f64) -> u32 {
        self.intern(CseKey::Const(v.to_bits()), |b, _| b.c(v))
    }

    fn add(&mut self, a: &u32, b: &u32) -> u32 {
        let (a, b) = (*a, *b);
        self.intern(CseKey::Add(a, b), |inner, vals| {
            inner.add(&vals[a as usize].clone(), &vals[b as usize].clone())
        })
    }

    fn sub(&mut self, a: &u32, b: &u32) -> u32 {
        let (a, b) = (*a, *b);
        self.intern(CseKey::Sub(a, b), |inner, vals| {
            inner.sub(&vals[a as usize].clone(), &vals[b as usize].clone())
        })
    }

    fn mul(&mut self, a: &u32, b: &u32) -> u32 {
        let (a, b) = (*a, *b);
        self.intern(CseKey::Mul(a, b), |inner, vals| {
            inner.mul(&vals[a as usize].clone(), &vals[b as usize].clone())
        })
    }

    fn neg(&mut self, a: &u32) -> u32 {
        let a = *a;
        self.intern(CseKey::Neg(a), |inner, vals| {
            inner.neg(&vals[a as usize].clone())
        })
    }

    fn fma(&mut self, a: &u32, b: &u32, c: &u32) -> u32 {
        let (a, b, c) = (*a, *b, *c);
        self.intern(CseKey::Fma(a, b, c), |inner, vals| {
            inner.fma(
                &vals[a as usize].clone(),
                &vals[b as usize].clone(),
                &vals[c as usize].clone(),
            )
        })
    }

    fn load(&mut self, leaf: usize, comp: usize) -> u32 {
        let path = self.current_path_id();
        self.intern(CseKey::Load(leaf, comp, path), |inner, _| {
            inner.load(leaf, comp)
        })
    }

    fn scalar(&mut self, idx: usize, imag: bool) -> u32 {
        self.intern(CseKey::Scalar(idx, imag), |inner, _| {
            inner.scalar(idx, imag)
        })
    }

    fn push_shift(&mut self, mu: usize, dir: ShiftDir) {
        self.path.push((mu, dir));
        self.inner.push_shift(mu, dir);
    }

    fn pop_shift(&mut self) {
        if self.path.pop().is_none() {
            self.fault = Some("unbalanced shift pop (pop without matching push)");
        }
        self.inner.pop_shift();
    }

    fn store(&mut self, comp: usize, v: &u32) {
        let val = self.vals[*v as usize].clone();
        self.inner.store(comp, &val);
    }

    fn fault(&self) -> Option<&str> {
        self.fault.or_else(|| self.inner.fault())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::cpu_backend::CpuGen;
    use qdp_layout::Geometry;

    fn tiny() -> (Geometry, Vec<Vec<f64>>) {
        let geom = Geometry::new([2, 2, 2, 2]);
        let vol = geom.vol();
        // One leaf with two components, values distinct per (comp, site).
        let leaf: Vec<f64> = (0..2 * vol).map(|i| i as f64 + 0.5).collect();
        (geom, vec![leaf])
    }

    #[test]
    fn repeated_loads_and_ops_hit_the_memo() {
        let (geom, leaves) = tiny();
        let scalars = [(2.0, 0.0)];
        let cpu = CpuGen::<f64>::new(&leaves, &scalars, &geom, 3);
        let mut b = CseBackend::new(cpu);
        let x1 = b.load(0, 0);
        let x2 = b.load(0, 0);
        assert_eq!(x1, x2, "same load, same value number");
        let s1 = b.add(&x1, &x2);
        let s2 = b.add(&x1, &x2);
        assert_eq!(s1, s2);
        assert_eq!(b.hits, 2);
        b.store(0, &s1);
        let cpu = b.into_inner();
        assert_eq!(cpu.out, vec![(0, 2.0 * leaves[0][3])]);
    }

    #[test]
    fn loads_under_different_shift_paths_stay_distinct() {
        let (geom, leaves) = tiny();
        let scalars: [(f64, f64); 0] = [];
        let cpu = CpuGen::<f64>::new(&leaves, &scalars, &geom, 0);
        let mut b = CseBackend::new(cpu);
        let here = b.load(0, 0);
        b.push_shift(0, ShiftDir::Forward);
        let there = b.load(0, 0);
        b.pop_shift();
        let here2 = b.load(0, 0);
        assert_ne!(here, there, "shifted load must not merge with unshifted");
        assert_eq!(here, here2, "same path after pop merges again");
        assert!(b.fault().is_none());
    }

    #[test]
    fn scalars_key_on_slot_not_value() {
        let (geom, leaves) = tiny();
        // Identical values in two different slots: kernels are reused
        // across scalar values, so these must stay distinct.
        let scalars = [(7.0, 0.0), (7.0, 0.0)];
        let cpu = CpuGen::<f64>::new(&leaves, &scalars, &geom, 0);
        let mut b = CseBackend::new(cpu);
        let a = b.scalar(0, false);
        let c = b.scalar(1, false);
        assert_ne!(a, c);
        let a2 = b.scalar(0, false);
        assert_eq!(a, a2);
    }

    #[test]
    fn unbalanced_pop_is_a_fault_not_a_panic() {
        let (geom, leaves) = tiny();
        let scalars: [(f64, f64); 0] = [];
        let cpu = CpuGen::<f64>::new(&leaves, &scalars, &geom, 0);
        let mut b = CseBackend::new(cpu);
        b.pop_shift();
        assert!(b.fault().is_some());
        assert!(b.fault().unwrap().contains("unbalanced shift pop"));
    }

    #[test]
    fn constants_key_on_bits() {
        let (geom, leaves) = tiny();
        let scalars: [(f64, f64); 0] = [];
        let cpu = CpuGen::<f64>::new(&leaves, &scalars, &geom, 0);
        let mut b = CseBackend::new(cpu);
        let z = b.c(0.0);
        let nz = b.c(-0.0);
        assert_ne!(z, nz, "-0.0 and 0.0 must not merge");
        let z2 = b.c(0.0);
        assert_eq!(z, z2);
    }
}
