//! PTX data types and virtual registers.

/// PTX instruction data types (the subset the code generator emits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PtxType {
    /// `.f32`
    F32,
    /// `.f64`
    F64,
    /// `.s32`
    S32,
    /// `.u32`
    U32,
    /// `.s64`
    S64,
    /// `.u64`
    U64,
    /// `.pred`
    Pred,
}

impl PtxType {
    /// The PTX type suffix, e.g. `f32` in `add.f32`.
    pub fn suffix(self) -> &'static str {
        match self {
            PtxType::F32 => "f32",
            PtxType::F64 => "f64",
            PtxType::S32 => "s32",
            PtxType::U32 => "u32",
            PtxType::S64 => "s64",
            PtxType::U64 => "u64",
            PtxType::Pred => "pred",
        }
    }

    /// Parse a type suffix.
    pub fn from_suffix(s: &str) -> Option<PtxType> {
        Some(match s {
            "f32" => PtxType::F32,
            "f64" => PtxType::F64,
            "s32" => PtxType::S32,
            "u32" => PtxType::U32,
            "s64" => PtxType::S64,
            "u64" => PtxType::U64,
            "pred" => PtxType::Pred,
            _ => return None,
        })
    }

    /// Size in bytes of a memory access of this type.
    pub fn size_bytes(self) -> usize {
        match self {
            PtxType::F32 | PtxType::S32 | PtxType::U32 => 4,
            PtxType::F64 | PtxType::S64 | PtxType::U64 => 8,
            PtxType::Pred => 1,
        }
    }

    /// Is this a floating-point type?
    pub fn is_float(self) -> bool {
        matches!(self, PtxType::F32 | PtxType::F64)
    }

    /// Is this an integer type?
    pub fn is_int(self) -> bool {
        matches!(
            self,
            PtxType::S32 | PtxType::U32 | PtxType::S64 | PtxType::U64
        )
    }

    /// The register class that can hold a value of this type.
    pub fn reg_class(self) -> RegClass {
        match self {
            PtxType::F32 => RegClass::F32,
            PtxType::F64 => RegClass::F64,
            PtxType::S32 | PtxType::U32 => RegClass::B32,
            PtxType::S64 | PtxType::U64 => RegClass::B64,
            PtxType::Pred => RegClass::Pred,
        }
    }
}

/// Register banks, following the conventional NVCC naming: `%f` (f32),
/// `%fd` (f64), `%r` (32-bit), `%rd` (64-bit), `%p` (predicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// 32-bit float bank (`%f`).
    F32,
    /// 64-bit float bank (`%fd`).
    F64,
    /// 32-bit untyped bank (`%r`).
    B32,
    /// 64-bit untyped bank (`%rd`).
    B64,
    /// Predicate bank (`%p`).
    Pred,
}

impl RegClass {
    /// Textual register prefix.
    pub fn prefix(self) -> &'static str {
        match self {
            RegClass::F32 => "%f",
            RegClass::F64 => "%fd",
            RegClass::B32 => "%r",
            RegClass::B64 => "%rd",
            RegClass::Pred => "%p",
        }
    }

    /// Declared register type in the `.reg` directive.
    pub fn decl_type(self) -> &'static str {
        match self {
            RegClass::F32 => ".f32",
            RegClass::F64 => ".f64",
            RegClass::B32 => ".b32",
            RegClass::B64 => ".b64",
            RegClass::Pred => ".pred",
        }
    }

    /// All register classes, in declaration order.
    pub fn all() -> [RegClass; 5] {
        [
            RegClass::F32,
            RegClass::F64,
            RegClass::B32,
            RegClass::B64,
            RegClass::Pred,
        ]
    }

    /// Position in [`RegClass::all`], which is also the class's slot in a
    /// kernel's `reg_counts`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Register width in bytes (predicates count as 1 for the resource
    /// model; the hardware stores them in a separate file).
    pub fn width_bytes(self) -> usize {
        match self {
            RegClass::F32 | RegClass::B32 => 4,
            RegClass::F64 | RegClass::B64 => 8,
            RegClass::Pred => 1,
        }
    }
}

/// A virtual register: a class (bank) and an index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg {
    /// Register bank.
    pub class: RegClass,
    /// Index within the bank (0-based internally; printed 1-based + index).
    pub id: u32,
}

impl Reg {
    /// Construct a register.
    pub fn new(class: RegClass, id: u32) -> Reg {
        Reg { class, id }
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Two direct writes, not a nested `write!`: the emitter prints
        // every register operand through here.
        f.write_str(self.class.prefix())?;
        self.id.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_roundtrip() {
        for t in [
            PtxType::F32,
            PtxType::F64,
            PtxType::S32,
            PtxType::U32,
            PtxType::S64,
            PtxType::U64,
            PtxType::Pred,
        ] {
            assert_eq!(PtxType::from_suffix(t.suffix()), Some(t));
        }
        assert_eq!(PtxType::from_suffix("f16"), None);
    }

    #[test]
    fn class_mapping() {
        assert_eq!(PtxType::F64.reg_class(), RegClass::F64);
        assert_eq!(PtxType::U32.reg_class(), RegClass::B32);
        assert_eq!(PtxType::S64.reg_class(), RegClass::B64);
        assert_eq!(PtxType::Pred.reg_class(), RegClass::Pred);
        for (i, c) in RegClass::all().into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn display() {
        assert_eq!(Reg::new(RegClass::F64, 7).to_string(), "%fd7");
        assert_eq!(Reg::new(RegClass::Pred, 1).to_string(), "%p1");
    }

    #[test]
    fn sizes() {
        assert_eq!(PtxType::F32.size_bytes(), 4);
        assert_eq!(PtxType::U64.size_bytes(), 8);
        assert!(PtxType::F64.is_float());
        assert!(PtxType::S32.is_int());
        assert!(!PtxType::Pred.is_float());
    }
}
