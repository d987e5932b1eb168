//! PTX text parser — the front half of the simulated driver JIT.
//!
//! The JIT crate consumes the *textual* PTX produced by the code generator,
//! exactly like the NVIDIA compute compile driver in the paper (Fig. 2), so
//! the full generate → print → parse → lower chain is exercised. The parser
//! accepts the syntax the emitter produces (plus minor whitespace/comment
//! freedom) and rejects malformed programs with line-accurate errors. It
//! handles syntax only: whether an opcode's type is one the generator emits
//! (`and.b32` but not `and.f64`) is `Kernel::validate`'s call.
//!
//! It works on borrowed slices of the input: lines, opcode parts and
//! operands are `&str`s into the text, so an instruction allocates only the
//! strings its [`Inst`] owns (label, branch target, parameter name).
//! Splitting and trimming scan bytes: `str::split`
//! and `str::trim` set up a searcher per call, which costs more than the
//! few bytes of an opcode or operand. Whitespace keeps its Unicode meaning —
//! a non-ASCII byte hands the scan to the `char`-based routine.

use crate::inst::{BinOp, CmpOp, Inst, Operand, SpecialReg};
use crate::module::{Kernel, Module, Param, MAX_REGS_PER_CLASS};
use crate::types::{PtxType, Reg, RegClass};
use crate::PtxError;

fn err(line: usize, msg: impl Into<String>) -> PtxError {
    PtxError::Parse {
        line,
        msg: msg.into(),
    }
}

/// Is `b` an ASCII byte that `char::is_whitespace` accepts?
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// `s.trim()`. `trim_ascii` strips all ASCII whitespace but the vertical
/// tab; an end it leaves at a non-ASCII byte or a vertical tab goes through
/// `str::trim`.
fn trim(s: &str) -> &str {
    let t = s.trim_ascii();
    let plain = |b: Option<&u8>| b.is_none_or(|&b| b.is_ascii() && !is_space(b));
    if plain(t.as_bytes().first()) && plain(t.as_bytes().last()) {
        t
    } else {
        t.trim()
    }
}

/// `s.split_once(char::is_whitespace)`.
fn split_space(s: &str) -> Option<(&str, &str)> {
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if is_space(b) {
            return Some((&s[..i], &s[i + 1..]));
        }
        if !b.is_ascii() {
            return s.split_once(char::is_whitespace);
        }
    }
    None
}

/// `s.split_once(sep)` for an ASCII separator.
fn split_once_byte(s: &str, sep: u8) -> Option<(&str, &str)> {
    let i = s.bytes().position(|b| b == sep)?;
    Some((&s[..i], &s[i + 1..]))
}

/// `s.split(sep)` for an ASCII separator.
fn split_byte(s: &str, sep: u8) -> impl Iterator<Item = &str> {
    let mut rest = Some(s);
    std::iter::from_fn(move || {
        let r = rest?;
        let (piece, tail) = split_once_byte(r, sep).map_or((r, None), |(p, t)| (p, Some(t)));
        rest = tail;
        Some(piece)
    })
}

/// `l` up to its first `//`.
fn cut_comment(l: &str) -> &str {
    match l.as_bytes().windows(2).position(|w| w == b"//") {
        Some(p) => &l[..p],
        None => l,
    }
}

/// Parse a register like `%fd12`.
fn parse_reg(tok: &str, line: usize) -> Result<Reg, PtxError> {
    // The two-letter prefixes win: `%fd1` is never `%f` + "d1".
    let (class, id) = match tok.as_bytes() {
        [b'%', b'f', b'd', ..] => (RegClass::F64, &tok[3..]),
        [b'%', b'r', b'd', ..] => (RegClass::B64, &tok[3..]),
        [b'%', b'f', ..] => (RegClass::F32, &tok[2..]),
        [b'%', b'r', ..] => (RegClass::B32, &tok[2..]),
        [b'%', b'p', ..] => (RegClass::Pred, &tok[2..]),
        _ => return Err(err(line, format!("bad register `{tok}`"))),
    };
    id.parse::<u32>()
        .map(|id| Reg::new(class, id))
        .map_err(|_| err(line, format!("bad register `{tok}`")))
}

/// Parse an operand: register, `0f`/`0d` float-bit immediate, or integer.
fn parse_operand(tok: &str, line: usize) -> Result<Operand, PtxError> {
    if tok.starts_with('%') {
        return Ok(Operand::Reg(parse_reg(tok, line)?));
    }
    if let Some(hex) = tok.strip_prefix("0f") {
        let bits =
            u32::from_str_radix(hex, 16).map_err(|_| err(line, format!("bad f32 imm `{tok}`")))?;
        return Ok(Operand::ImmF(f32::from_bits(bits) as f64));
    }
    if let Some(hex) = tok.strip_prefix("0d") {
        let bits =
            u64::from_str_radix(hex, 16).map_err(|_| err(line, format!("bad f64 imm `{tok}`")))?;
        return Ok(Operand::ImmF(f64::from_bits(bits)));
    }
    tok.parse::<i64>()
        .map(Operand::ImmI)
        .map_err(|_| err(line, format!("bad operand `{tok}`")))
}

/// Parse a memory operand `[name]` or `[%rd3]` or `[%rd3+16]`.
/// Returns either a param name or (register, offset).
enum MemRef<'a> {
    Param(&'a str),
    Addr(Reg, i64),
}

fn parse_memref(tok: &str, line: usize) -> Result<MemRef<'_>, PtxError> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("bad memory operand `{tok}`")))?;
    if inner.starts_with('%') {
        if let Some((r, off)) = split_once_byte(inner, b'+') {
            let reg = parse_reg(trim(r), line)?;
            let offset = trim(off)
                .parse::<i64>()
                .map_err(|_| err(line, format!("bad offset `{off}`")))?;
            Ok(MemRef::Addr(reg, offset))
        } else if let Some((r, off)) = split_once_byte(inner, b'-') {
            let reg = parse_reg(trim(r), line)?;
            let offset = trim(off)
                .parse::<i64>()
                .map_err(|_| err(line, format!("bad offset `{off}`")))?;
            Ok(MemRef::Addr(reg, -offset))
        } else {
            Ok(MemRef::Addr(parse_reg(inner, line)?, 0))
        }
    } else {
        Ok(MemRef::Param(inner))
    }
}

/// An instruction's operand text split on commas (PTX operands do not
/// nest), trimmed, with empty pieces dropped.
fn operands(s: &str) -> impl Iterator<Item = &str> {
    split_byte(s, b',').map(trim).filter(|t| !t.is_empty())
}

/// `s` split on whitespace into exactly `N` words.
fn words<const N: usize>(s: &str) -> Option<[&str; N]> {
    let mut it = s.split_whitespace();
    let mut out = [""; N];
    for w in &mut out {
        *w = it.next()?;
    }
    it.next().is_none().then_some(out)
}

/// Part `idx` of a dotted opcode (`ld.global.f64` → `ld`, `global`, `f64`).
fn part(opcode: &str, idx: usize) -> Option<&str> {
    split_byte(opcode, b'.').nth(idx)
}

fn type_from(opcode: &str, idx: usize, line: usize) -> Result<PtxType, PtxError> {
    part(opcode, idx)
        .and_then(PtxType::from_suffix)
        .ok_or_else(|| err(line, format!("missing/bad type suffix in `{opcode}`")))
}

/// The first type suffix among an opcode's modifiers (`fma.rn.f64`).
fn any_type(opcode: &str) -> Option<PtxType> {
    split_byte(opcode, b'.')
        .skip(1)
        .find_map(PtxType::from_suffix)
}

/// `b32`/`b64` suffixes map to unsigned types of that width.
fn type_from_bits(s: &str) -> Option<PtxType> {
    match s {
        "b32" => Some(PtxType::U32),
        "b64" => Some(PtxType::U64),
        other => PtxType::from_suffix(other),
    }
}

/// Parse one instruction line (already stripped, non-empty, without label
/// or predicate prefix handling — those are done by the caller).
fn parse_plain_inst(text: &str, line: usize) -> Result<Inst, PtxError> {
    let text = trim(text.trim_end_matches(';'));
    let (opcode, rest) = match split_space(text) {
        Some((o, r)) => (o, trim(r)),
        None => (text, ""),
    };
    // No form reads past its fourth operand; an empty slot is a missing one.
    let mut ops = [""; 4];
    for (slot, tok) in ops.iter_mut().zip(operands(rest)) {
        *slot = tok;
    }
    let tok = |i: usize| -> Option<&str> { Some(ops[i]).filter(|t| !t.is_empty()) };
    let reg0 = |i: usize| -> Result<Reg, PtxError> {
        tok(i)
            .ok_or_else(|| err(line, "missing operand"))
            .and_then(|t| parse_reg(t, line))
    };
    let opnd = |i: usize| -> Result<Operand, PtxError> {
        tok(i)
            .ok_or_else(|| err(line, "missing operand"))
            .and_then(|t| parse_operand(t, line))
    };

    let head = part(opcode, 0).unwrap_or_default();
    match head {
        "ld" => {
            let space = part(opcode, 1).ok_or_else(|| err(line, "ld needs space"))?;
            let ty = type_from(opcode, 2, line)?;
            let dst = reg0(0)?;
            let mem = parse_memref(tok(1).ok_or_else(|| err(line, "missing addr"))?, line)?;
            match (space, mem) {
                ("param", MemRef::Param(p)) => Ok(Inst::LdParam {
                    ty,
                    dst,
                    param: p.to_string(),
                }),
                ("global", MemRef::Addr(addr, offset)) => Ok(Inst::LdGlobal {
                    ty,
                    dst,
                    addr,
                    offset,
                }),
                _ => Err(err(line, "unsupported ld form")),
            }
        }
        "st" => {
            if part(opcode, 1) != Some("global") {
                return Err(err(line, "only st.global supported"));
            }
            let ty = type_from(opcode, 2, line)?;
            let mem = parse_memref(tok(0).ok_or_else(|| err(line, "missing addr"))?, line)?;
            let src = opnd(1)?;
            match mem {
                MemRef::Addr(addr, offset) => Ok(Inst::StGlobal {
                    ty,
                    addr,
                    offset,
                    src,
                }),
                _ => Err(err(line, "st.global needs an address")),
            }
        }
        "mov" if opcode == "mov.b64" => {
            // An f64 and its 32-bit halves: `{lo, hi}` on one side.
            let half = |t: Option<&str>, open: bool| -> Result<Reg, PtxError> {
                let t = t.ok_or_else(|| err(line, "missing operand"))?;
                let bare = if open {
                    t.strip_prefix('{')
                } else {
                    t.strip_suffix('}')
                };
                parse_reg(
                    trim(bare.ok_or_else(|| err(line, "bad `{lo, hi}` pair"))?),
                    line,
                )
            };
            if tok(0).is_some_and(|t| t.starts_with('{')) {
                Ok(Inst::Unpack {
                    lo: half(tok(0), true)?,
                    hi: half(tok(1), false)?,
                    src: reg0(2)?,
                })
            } else {
                Ok(Inst::Pack {
                    dst: reg0(0)?,
                    lo: half(tok(1), true)?,
                    hi: half(tok(2), false)?,
                })
            }
        }
        "shfl" => {
            if opcode != "shfl.bfly.b32" || tok(3) != Some("0x1f") {
                return Err(err(line, "only shfl.bfly.b32 with clamp 0x1f supported"));
            }
            let lane_mask = tok(2)
                .and_then(|t| t.parse::<u32>().ok())
                .ok_or_else(|| err(line, "shfl lane mask must be an integer"))?;
            Ok(Inst::Shfl {
                dst: reg0(0)?,
                src: reg0(1)?,
                lane_mask,
            })
        }
        "mov" => {
            let ty = type_from(opcode, 1, line)?;
            let dst = reg0(0)?;
            let src_tok = tok(1).ok_or_else(|| err(line, "missing operand"))?;
            if let Some(sreg) = SpecialReg::from_name(src_tok) {
                Ok(Inst::MovSpecial { dst, sreg })
            } else {
                Ok(Inst::Mov {
                    ty,
                    dst,
                    src: parse_operand(src_tok, line)?,
                })
            }
        }
        "cvt" => {
            // cvt[.rn].<dst>.<src>
            let idx = if part(opcode, 1) == Some("rn") { 2 } else { 1 };
            let dst_ty = type_from(opcode, idx, line)?;
            let src_ty = type_from(opcode, idx + 1, line)?;
            Ok(Inst::Cvt {
                dst_ty,
                src_ty,
                dst: reg0(0)?,
                src: reg0(1)?,
            })
        }
        "neg" => Ok(Inst::Neg {
            ty: type_from(opcode, 1, line)?,
            dst: reg0(0)?,
            src: opnd(1)?,
        }),
        "add" | "sub" | "and" | "shr" => {
            let op = match head {
                "add" => BinOp::Add,
                "sub" => BinOp::Sub,
                "and" => BinOp::And,
                _ => BinOp::Shr,
            };
            let ty = part(opcode, 1)
                .and_then(type_from_bits)
                .ok_or_else(|| err(line, "bad binary type"))?;
            Ok(Inst::Binary {
                op,
                ty,
                dst: reg0(0)?,
                a: opnd(1)?,
                b: opnd(2)?,
            })
        }
        "mul" => match part(opcode, 1) {
            Some("wide") => {
                if opcode != "mul.wide.u32" {
                    return Err(err(line, "only mul.wide.u32 supported"));
                }
                Ok(Inst::MulWide {
                    dst: reg0(0)?,
                    a: reg0(1)?,
                    b: opnd(2)?,
                })
            }
            Some("lo") => {
                let ty = type_from(opcode, 2, line)?;
                Ok(Inst::Binary {
                    op: BinOp::Mul,
                    ty,
                    dst: reg0(0)?,
                    a: opnd(1)?,
                    b: opnd(2)?,
                })
            }
            _ => {
                let ty = type_from(opcode, 1, line)?;
                Ok(Inst::Binary {
                    op: BinOp::Mul,
                    ty,
                    dst: reg0(0)?,
                    a: opnd(1)?,
                    b: opnd(2)?,
                })
            }
        },
        "mad" => {
            if opcode != "mad.lo.u32" {
                return Err(err(line, "only mad.lo.u32 supported"));
            }
            Ok(Inst::MadLo {
                dst: reg0(0)?,
                a: opnd(1)?,
                b: opnd(2)?,
                c: opnd(3)?,
            })
        }
        "fma" => {
            let ty = any_type(opcode).ok_or_else(|| err(line, "bad fma type"))?;
            Ok(Inst::Fma {
                ty,
                dst: reg0(0)?,
                a: opnd(1)?,
                b: opnd(2)?,
                c: opnd(3)?,
            })
        }
        "setp" => {
            let cmp = part(opcode, 1)
                .and_then(CmpOp::from_name)
                .ok_or_else(|| err(line, "bad setp comparison"))?;
            let ty = type_from(opcode, 2, line)?;
            Ok(Inst::Setp {
                cmp,
                ty,
                dst: reg0(0)?,
                a: opnd(1)?,
                b: opnd(2)?,
            })
        }
        "selp" => {
            let ty = part(opcode, 1)
                .and_then(type_from_bits)
                .ok_or_else(|| err(line, "bad selp type"))?;
            Ok(Inst::Selp {
                ty,
                dst: reg0(0)?,
                a: opnd(1)?,
                b: opnd(2)?,
                pred: reg0(3)?,
            })
        }
        "bra" => Ok(Inst::Bra {
            target: rest.trim().to_string(),
            pred: None,
        }),
        "ret" => Ok(Inst::Ret),
        other => Err(err(line, format!("unknown opcode `{other}`"))),
    }
}

fn parse_inst(text: &str, line: usize) -> Result<Inst, PtxError> {
    let text = trim(text);
    // label?
    if let Some(name) = text.strip_suffix(':') {
        if !name.contains(char::is_whitespace) {
            return Ok(Inst::Label {
                name: name.to_string(),
            });
        }
    }
    // predicated branch?
    if let Some(rest) = text.strip_prefix('@') {
        let (pred_tok, body) =
            split_space(rest).ok_or_else(|| err(line, "bad predicated instruction"))?;
        let (negated, reg_tok) = match pred_tok.strip_prefix('!') {
            Some(r) => (true, r),
            None => (false, pred_tok),
        };
        let pred = parse_reg(reg_tok, line)?;
        let inner = parse_plain_inst(body, line)?;
        match inner {
            Inst::Bra { target, .. } => {
                return Ok(Inst::Bra {
                    target,
                    pred: Some((pred, negated)),
                })
            }
            _ => return Err(err(line, "only branches may be predicated")),
        }
    }
    parse_plain_inst(text, line)
}

/// Parse a complete PTX module from text.
pub fn parse_module(text: &str) -> Result<Module, PtxError> {
    let mut module = Module::new();
    module.kernels.clear();

    // Strip comments; keep line numbers.
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, trim(cut_comment(l))))
        .filter(|(_, l)| !l.is_empty())
        .collect();

    let mut i = 0usize;
    while i < lines.len() {
        let (lineno, line) = lines[i];
        if let Some(v) = line.strip_prefix(".version") {
            let v = v.trim();
            let (maj, min) = v
                .split_once('.')
                .ok_or_else(|| err(lineno, "bad .version"))?;
            module.version = (
                maj.parse().map_err(|_| err(lineno, "bad version"))?,
                min.parse().map_err(|_| err(lineno, "bad version"))?,
            );
            i += 1;
        } else if let Some(t) = line.strip_prefix(".target") {
            module.target = t.trim().to_string();
            i += 1;
        } else if line.starts_with(".address_size") {
            i += 1;
        } else if line.starts_with(".visible .entry") || line.starts_with(".entry") {
            // Gather the header until the opening brace.
            let mut header = String::new();
            let start_line = lineno;
            while i < lines.len() {
                let l = lines[i].1;
                if l == "{" {
                    i += 1;
                    break;
                }
                // header line may end with "{"
                if let Some(h) = l.strip_suffix('{') {
                    header.push_str(h);
                    header.push(' ');
                    i += 1;
                    break;
                }
                header.push_str(l);
                header.push(' ');
                i += 1;
            }
            let kernel_start = header
                .find(".entry")
                .ok_or_else(|| err(start_line, "missing .entry"))?
                + ".entry".len();
            let after = header[kernel_start..].trim();
            let paren = after
                .find('(')
                .ok_or_else(|| err(start_line, "missing parameter list"))?;
            let name = after[..paren].trim().to_string();
            let close = after
                .rfind(')')
                .ok_or_else(|| err(start_line, "missing `)`"))?;
            if close < paren {
                return Err(err(start_line, "`)` precedes `(` in parameter list"));
            }
            let mut params = Vec::new();
            for ptext in after[paren + 1..close].split(',') {
                let ptext = ptext.trim();
                if ptext.is_empty() {
                    continue;
                }
                // ".param .u64 name"
                let Some([".param", ty, name]) = words(ptext) else {
                    return Err(err(start_line, format!("bad parameter `{ptext}`")));
                };
                let ty = ty
                    .strip_prefix('.')
                    .and_then(PtxType::from_suffix)
                    .ok_or_else(|| err(start_line, format!("bad param type `{ty}`")))?;
                params.push(Param {
                    name: name.to_string(),
                    ty,
                });
            }

            // Body until matching '}'.
            let mut body = Vec::new();
            let mut reg_counts = [0u32; 5];
            let mut closed = false;
            while i < lines.len() {
                let (ln, l) = lines[i];
                if l == "}" {
                    i += 1;
                    closed = true;
                    break;
                }
                if let Some(decl) = l.strip_prefix(".reg") {
                    // ".reg .f32 %f<3>;"
                    let decl = decl.trim().trim_end_matches(';');
                    let Some([decl_type, count]) = words(decl) else {
                        return Err(err(ln, "bad .reg declaration"));
                    };
                    let class = RegClass::all()
                        .into_iter()
                        .find(|c| c.decl_type() == decl_type)
                        .ok_or_else(|| err(ln, format!("bad reg class `{decl_type}`")))?;
                    let count = count
                        .trim_start_matches(class.prefix())
                        .trim_start_matches('<')
                        .trim_end_matches('>')
                        .parse::<u32>()
                        .map_err(|_| err(ln, "bad reg count"))?;
                    if count > MAX_REGS_PER_CLASS {
                        return Err(err(
                            ln,
                            format!("reg count {count} exceeds limit {MAX_REGS_PER_CLASS}"),
                        ));
                    }
                    reg_counts[class.index()] = count;
                    i += 1;
                    continue;
                }
                body.push(parse_inst(l, ln)?);
                i += 1;
            }
            if !closed {
                return Err(err(start_line, "unterminated kernel body"));
            }
            module.kernels.push(Kernel {
                name,
                params,
                body,
                reg_counts,
            });
        } else {
            return Err(err(lineno, format!("unexpected line `{line}`")));
        }
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::{emit_module, float_imm};
    use crate::module::KernelBuilder;

    fn vadd_module() -> Module {
        let mut b = KernelBuilder::new("vadd_f64");
        let p_out = b.param("out", PtxType::U64);
        let p_a = b.param("a", PtxType::U64);
        let p_n = b.param("n", PtxType::U32);
        let tid = b.global_tid();
        let n = b.ld_param(&p_n, PtxType::U32);
        let exit = b.guard(tid, n);
        let off = b.fresh(RegClass::B64);
        b.push(Inst::MulWide {
            dst: off,
            a: tid,
            b: Operand::ImmI(8),
        });
        let base_a = b.ld_param(&p_a, PtxType::U64);
        let addr = b.bin(BinOp::Add, PtxType::U64, base_a.into(), off.into());
        let v = b.fresh(RegClass::F64);
        b.push(Inst::LdGlobal {
            ty: PtxType::F64,
            dst: v,
            addr,
            offset: 0,
        });
        let two = b.mov(PtxType::F64, Operand::ImmF(2.0));
        let doubled = b.fma(PtxType::F64, v.into(), two.into(), Operand::ImmF(0.5));
        let base_o = b.ld_param(&p_out, PtxType::U64);
        let addr_o = b.bin(BinOp::Add, PtxType::U64, base_o.into(), off.into());
        b.push(Inst::StGlobal {
            ty: PtxType::F64,
            addr: addr_o,
            offset: 16,
            src: doubled.into(),
        });
        b.bind_label(&exit);
        Module::with_kernel(b.finish())
    }

    #[test]
    fn roundtrip_ir_equality() {
        let m = vadd_module();
        let text = emit_module(&m);
        let parsed = parse_module(&text).expect("parse emitted PTX");
        assert_eq!(parsed, m);
    }

    #[test]
    fn roundtrip_text_idempotent() {
        let m = vadd_module();
        let t1 = emit_module(&m);
        let t2 = emit_module(&parse_module(&t1).unwrap());
        assert_eq!(t1, t2);
    }

    #[test]
    fn parses_float_immediates_exactly() {
        for v in [0.0f64, 1.0, -1.5, std::f64::consts::PI, 1e-300, f64::MAX] {
            let tok = float_imm(PtxType::F64, v);
            match parse_operand(&tok, 1).unwrap() {
                Operand::ImmF(x) => assert_eq!(x.to_bits(), v.to_bits()),
                _ => panic!("not a float imm"),
            }
        }
    }

    /// The byte scanners accept exactly what the `str` routines they stand
    /// in for do, Unicode and vertical-tab whitespace included.
    #[test]
    fn byte_scanners_match_std() {
        let samples = [
            "",
            " ",
            "\x0b",
            "a",
            " a\t",
            "\x0ba\x0b",
            "\u{a0}a\u{3000}",
            "é b",
            "a\u{2003}b c",
            "\t%fd1, , %fd2 ",
            "x//y",
            "a/b//c",
            "//",
            "ld.global.f64",
            "..a.",
            ",,x,",
        ];
        for s in samples {
            assert_eq!(trim(s), s.trim(), "{s:?}");
            assert_eq!(split_space(s), s.split_once(char::is_whitespace), "{s:?}");
            assert_eq!(cut_comment(s), s.find("//").map_or(s, |p| &s[..p]), "{s:?}");
            for sep in [b',', b'.', b'+'] {
                let std: Vec<&str> = s.split(sep as char).collect();
                assert_eq!(split_byte(s, sep).collect::<Vec<_>>(), std, "{s:?}");
                assert_eq!(split_once_byte(s, sep), s.split_once(sep as char), "{s:?}");
            }
        }
        let text = emit_module(&vadd_module());
        let spaced = text
            .replace("\tadd.u64 ", "\x0badd.u64\u{a0}")
            .replace(", ", ",\u{2003}");
        assert!(spaced.contains("\x0badd.u64\u{a0}%rd"));
        assert_eq!(parse_module(&spaced).unwrap(), vadd_module());
    }

    /// The warp butterfly's forms read back as they print, and the
    /// spellings around them that the generator never prints do not parse.
    #[test]
    fn shuffle_forms_roundtrip() {
        let body = "\tmov.b64 {%r0, %r1}, %fd0;\n\tshfl.bfly.b32 %r2, %r0, 4, 0x1f;\n\
                    \tshfl.bfly.b32 %r3, %r1, 4, 0x1f;\n\tmov.b64 %fd1, {%r2, %r3};\n\
                    \tshr.u32 %r4, %r2, 5;\n";
        let kernel = |body: &str| {
            format!(
                ".version 3.1\n.target sm_35\n.address_size 64\n\n\
                 .visible .entry k(\n\t.param .u32 n\n)\n{{\n\
                 \t.reg .f64 %fd<2>;\n\t.reg .b32 %r<5>;\n\n{body}\tret;\n}}\n\n"
            )
        };
        let text = format!(
            "//\n// Generated by QDP-JIT/PTX (Rust reproduction)\n//\n{}",
            kernel(body)
        );
        let m = parse_module(&text).unwrap();
        assert_eq!(emit_module(&m), text);
        let [r0, r1, r2, r3] = [0, 1, 2, 3].map(|i| Reg::new(RegClass::B32, i));
        let [fd0, fd1] = [0, 1].map(|i| Reg::new(RegClass::F64, i));
        assert_eq!(
            m.kernels[0].body[0],
            Inst::Unpack {
                lo: r0,
                hi: r1,
                src: fd0
            }
        );
        assert_eq!(
            m.kernels[0].body[2],
            Inst::Shfl {
                dst: r3,
                src: r1,
                lane_mask: 4
            }
        );
        assert_eq!(
            m.kernels[0].body[3],
            Inst::Pack {
                dst: fd1,
                lo: r2,
                hi: r3
            }
        );
        for line in [
            "\tshfl.down.b32 %r2, %r0, 4, 0x1f;\n",
            "\tshfl.bfly.b32 %r2, %r0, 4, 0x0;\n",
            "\tshfl.bfly.b32 %r2, %r0, %r1, 0x1f;\n",
            "\tmov.b64 {%r0 %r1}, %fd0;\n",
            "\tmov.b64 %fd1, {%r2, %r3;\n",
        ] {
            assert!(parse_module(&kernel(line)).is_err(), "{line}");
        }
    }

    #[test]
    fn rejects_unknown_opcode() {
        let text = "\
.version 3.1
.target sm_35
.address_size 64
.visible .entry k(
\t.param .u32 n
)
{
\tfrobnicate.f32 %f0, %f1;
}
";
        let e = parse_module(text).unwrap_err();
        match e {
            PtxError::Parse { line, .. } => assert_eq!(line, 8),
            _ => panic!("wrong error kind"),
        }
    }

    #[test]
    fn rejects_unterminated_kernel() {
        let text = "\
.version 3.1
.target sm_35
.visible .entry k(
\t.param .u32 n
)
{
\tret;
";
        assert!(parse_module(text).is_err());
    }

    #[test]
    fn parses_predicated_branch_and_labels() {
        let text = "\
.version 3.1
.target sm_35
.visible .entry k(
\t.param .u32 n
)
{
\t.reg .pred %p<1>;
\t@!%p0 bra $skip_1;
$skip_1:
\tret;
}
";
        let m = parse_module(text).unwrap();
        let k = &m.kernels[0];
        assert_eq!(
            k.body[0],
            Inst::Bra {
                target: "$skip_1".into(),
                pred: Some((Reg::new(RegClass::Pred, 0), true)),
            }
        );
        assert_eq!(
            k.body[1],
            Inst::Label {
                name: "$skip_1".into()
            }
        );
    }

    #[test]
    fn parses_call_and_negative_offsets() {
        let kernel = |line: &str| {
            format!(
                "\
.version 3.1
.target sm_35
.visible .entry k(
\t.param .u64 p
)
{{
\t.reg .f64 %fd<2>;
\t.reg .b64 %rd<1>;
\tld.global.f64 %fd0, [%rd0+-8];
{line}
\tret;
}}
"
            )
        };
        let m = parse_module(&kernel("")).unwrap();
        assert!(matches!(
            m.kernels[0].body[0],
            Inst::LdGlobal { offset: -8, .. }
        ));
        // Math-subroutine calls are not in the generator's dialect (spelled
        // in pieces, like the ci.sh guard that keeps them out).
        let call = concat!("\tcall", ".uni (%fd1), qdpjit_sin_f64, (%fd0);");
        let e = parse_module(&kernel(call)).unwrap_err();
        assert_eq!(e, err(10, "unknown opcode `call`"));
    }

    #[test]
    fn multiple_kernels_in_one_module() {
        let mut m = vadd_module();
        let mut b = KernelBuilder::new("second");
        b.param("n", PtxType::U32);
        m.kernels.push(b.finish());
        let text = emit_module(&m);
        let parsed = parse_module(&text).unwrap();
        assert_eq!(parsed.kernels.len(), 2);
        assert_eq!(parsed.kernels[1].name, "second");
    }
}
