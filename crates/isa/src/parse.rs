//! A parser for AT&T-syntax basic blocks.
//!
//! The parser accepts the subset of AT&T x86-64 syntax produced by this
//! crate's own [`fmt::Display`](std::fmt::Display) implementations plus the
//! common spellings that appear in the paper's case studies (`pushq %rbx`,
//! `xorl %r13d, %r13d`, `addl %eax, 16(%rsp)`, `shrq $5, 16(%rsp)`, ...).

use std::borrow::Cow;
use std::fmt;

use crate::opcode::{Form, Opcode, OperandKind, Width};
use crate::registry::{OpcodeId, OpcodeRegistry};
use crate::{BasicBlock, Inst, MemRef, Mnemonic, Operand, Reg};

/// Error produced when a basic block cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line could not be split into mnemonic and operands.
    BadLine(String),
    /// The mnemonic is not recognized.
    UnknownMnemonic(String),
    /// A register name is not recognized.
    UnknownRegister(String),
    /// An operand could not be parsed.
    BadOperand(String),
    /// The mnemonic is known but the combination of width and operand kinds is
    /// not in the opcode registry.
    UnsupportedOpcode(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadLine(line) => write!(f, "malformed instruction line `{line}`"),
            ParseError::UnknownMnemonic(m) => write!(f, "unknown mnemonic `{m}`"),
            ParseError::UnknownRegister(r) => write!(f, "unknown register `{r}`"),
            ParseError::BadOperand(o) => write!(f, "malformed operand `{o}`"),
            ParseError::UnsupportedOpcode(o) => write!(f, "unsupported opcode combination `{o}`"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses a multi-line AT&T-syntax basic block.
///
/// Empty lines and lines starting with `#` or `//` are ignored. Instructions
/// may optionally be separated by `;` instead of newlines.
pub fn parse_block(text: &str) -> Result<BasicBlock, ParseError> {
    let mut block = BasicBlock::new();
    for line in text.lines().flat_map(|l| l.split(';')) {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
            continue;
        }
        block.push(parse_inst(line)?);
    }
    Ok(block)
}

/// Parses a single AT&T-syntax instruction.
pub fn parse_inst(line: &str) -> Result<Inst, ParseError> {
    let line = line.trim();
    let (mnemonic_text, rest) = match line.find(char::is_whitespace) {
        Some(pos) => (&line[..pos], line[pos..].trim()),
        None => (line, ""),
    };
    if mnemonic_text.is_empty() {
        return Err(ParseError::BadLine(line.to_string()));
    }

    let att_operands = split_operands(rest)
        .into_iter()
        .map(parse_operand)
        .collect::<Result<Vec<_>, _>>()?;
    // AT&T order is source-first; internal order is destination-first.
    let mut operands = att_operands;
    operands.reverse();

    // AVX three-operand spellings (`vaddps %ymm2, %ymm1, %ymm0`) are folded to
    // the destructive two-operand form used by the opcode registry: keep the
    // destination plus the memory source if present, otherwise the first source.
    if operands.len() == 3 && !operands.iter().any(|o| matches!(o, Operand::Imm(_))) {
        let dst = operands[0];
        let src = if operands[2].is_mem() {
            operands[2]
        } else {
            operands[1]
        };
        operands = vec![dst, src];
    }

    let (mnemonic, width) = resolve_mnemonic(mnemonic_text, &operands)?;
    let form = infer_form(&operands).ok_or_else(|| ParseError::BadLine(line.to_string()))?;
    let id = lookup_opcode(mnemonic, width, form)
        .ok_or_else(|| ParseError::UnsupportedOpcode(format!("{mnemonic_text} ({line})")))?;
    Ok(Inst::new(id, operands))
}

/// Splits an operand list on commas that are not inside parentheses.
fn split_operands(rest: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (index, c) in rest.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(rest[start..index].trim());
                start = index + 1;
            }
            _ => {}
        }
    }
    let last = rest[start..].trim();
    if !last.is_empty() {
        out.push(last);
    }
    out
}

fn parse_imm(text: &str) -> Result<i64, ParseError> {
    let (neg, digits) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text),
    };
    let value = if let Some(hex) = digits
        .strip_prefix("0x")
        .or_else(|| digits.strip_prefix("0X"))
    {
        i64::from_str_radix(hex, 16)
    } else {
        digits.parse::<i64>()
    }
    .map_err(|_| ParseError::BadOperand(text.to_string()))?;
    Ok(if neg { -value } else { value })
}

fn parse_operand(text: &str) -> Result<Operand, ParseError> {
    let text = text.trim();
    if let Some(imm) = text.strip_prefix('$') {
        return Ok(Operand::Imm(parse_imm(imm)?));
    }
    if text.starts_with('%') {
        let reg: Reg = text
            .parse()
            .map_err(|_| ParseError::UnknownRegister(text.to_string()))?;
        return Ok(Operand::Reg(reg));
    }
    // Memory operand: disp(base, index, scale) with every part optional except
    // the parentheses (a bare displacement is not supported).
    let open = text
        .find('(')
        .ok_or_else(|| ParseError::BadOperand(text.to_string()))?;
    let close = text
        .rfind(')')
        .ok_or_else(|| ParseError::BadOperand(text.to_string()))?;
    if close < open {
        return Err(ParseError::BadOperand(text.to_string()));
    }
    let disp_text = text[..open].trim();
    let disp = if disp_text.is_empty() {
        0
    } else {
        parse_imm(disp_text)? as i32
    };
    let inner = &text[open + 1..close];
    let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
    let parse_reg = |s: &str| -> Result<Reg, ParseError> {
        s.parse()
            .map_err(|_| ParseError::UnknownRegister(s.to_string()))
    };
    let base = match parts.first() {
        Some(&"") | None => None,
        Some(&s) => Some(parse_reg(s)?),
    };
    let index = match parts.get(1) {
        Some(&"") | None => None,
        Some(&s) => Some(parse_reg(s)?),
    };
    let scale = match parts.get(2) {
        Some(&"") | None => 1,
        Some(&s) => s
            .parse::<u8>()
            .map_err(|_| ParseError::BadOperand(text.to_string()))?,
    };
    Ok(Operand::Mem(MemRef {
        base,
        index,
        scale,
        disp,
    }))
}

/// True if any operand is a vector register.
fn has_vector_operand(operands: &[Operand]) -> bool {
    operands.iter().any(|o| match o {
        Operand::Reg(r) => r.width().is_vector(),
        _ => false,
    })
}

/// Resolves a mnemonic spelling plus operand list into a mnemonic and width.
fn resolve_mnemonic(text: &str, operands: &[Operand]) -> Result<(Mnemonic, Width), ParseError> {
    let lower: Cow<'_, str> = if text.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(text.to_ascii_lowercase())
    } else {
        Cow::Borrowed(text)
    };
    let lower = lower.as_ref();
    let ymm = operands
        .iter()
        .any(|o| matches!(o, Operand::Reg(r) if r.width() == Width::B256));

    // Exact match against mnemonics with no width suffix (SSE/AVX, setcc, nop, ...).
    if let Some(m) = Mnemonic::from_att_name(lower).filter(|m| !m.has_width_suffix()) {
        // `movq`/`movd` (and `movsd`) are ambiguous between the SSE move and
        // a scalar integer spelling: prefer the vector reading only if a
        // vector register is actually involved.
        let ambiguous = matches!(m, Mnemonic::Movq | Mnemonic::Movd | Mnemonic::Movsd);
        if !ambiguous || has_vector_operand(operands) {
            let width = if ymm {
                Width::B256
            } else if m.class().is_vector() {
                Width::B128
            } else {
                Width::B8
            };
            return Ok((m, width));
        }
    }

    // AVX `v`-prefixed spellings of SSE mnemonics (`vaddps`, `vpxor`, ...).
    if let Some(m) = lower
        .strip_prefix('v')
        .and_then(Mnemonic::from_att_name)
        .filter(|m| !m.has_width_suffix() && m.class().is_vector())
    {
        return Ok((m, if ymm { Width::B256 } else { Width::B128 }));
    }

    // Suffix-carrying scalar mnemonics (including SSE spellings with a vector operand,
    // which were handled above).
    let suffix_width = |c: char| match c {
        'b' => Some(Width::B8),
        'w' => Some(Width::B16),
        'l' => Some(Width::B32),
        'q' => Some(Width::B64),
        _ => None,
    };

    // movz/movs encode both source and destination widths (e.g. `movzbl`);
    // the destination width is the final suffix character.
    for prefix in ["movz", "movs"] {
        if lower.starts_with(prefix) && lower.len() > prefix.len() + 1 {
            let dest = lower.chars().last().and_then(suffix_width);
            if let Some(width) = dest {
                let m = if prefix == "movz" {
                    Mnemonic::Movzx
                } else {
                    Mnemonic::Movsx
                };
                return Ok((m, width));
            }
        }
    }

    let (base, explicit_width) = match lower.chars().last().and_then(suffix_width) {
        Some(width) if lower.len() > 1 => (&lower[..lower.len() - 1], Some(width)),
        _ => (lower, None),
    };

    for candidate in [base, lower] {
        if let Some(m) = Mnemonic::from_att_name(candidate).filter(|m| m.has_width_suffix()) {
            let width = explicit_width
                .filter(|_| candidate == base)
                .or_else(|| {
                    operands.iter().find_map(|o| match o {
                        Operand::Reg(r) if !r.width().is_vector() => Some(r.width()),
                        _ => None,
                    })
                })
                .unwrap_or(Width::B32);
            return Ok((m, width));
        }
    }

    Err(ParseError::UnknownMnemonic(text.to_string()))
}

/// Infers the operand form from destination-first operand kinds.
fn infer_form(operands: &[Operand]) -> Option<Form> {
    let kinds: Vec<OperandKind> = operands
        .iter()
        .map(|o| match o {
            Operand::Reg(_) => OperandKind::Reg,
            Operand::Mem(_) => OperandKind::Mem,
            Operand::Imm(_) => OperandKind::Imm,
        })
        .collect();
    use OperandKind::*;
    let form = match kinds.as_slice() {
        [] => Form::NoOperands,
        [Reg] => Form::R,
        [Mem] => Form::M,
        [Imm] => Form::I,
        [Reg, Reg] => Form::Rr,
        [Reg, Imm] => Form::Ri,
        [Reg, Mem] => Form::Rm,
        [Mem, Reg] => Form::Mr,
        [Mem, Imm] => Form::Mi,
        [Reg, Reg, Imm] => Form::Rri,
        [Reg, Mem, Imm] => Form::Rmi,
        _ => return None,
    };
    Some(form)
}

/// Looks up the opcode, correcting widths for mnemonics whose registry widths
/// differ from the operand-derived width (e.g. `cdq` is registered at 32 bits,
/// setcc at 8 bits, `push`/`pop` at 16/64 bits).
fn lookup_opcode(mnemonic: Mnemonic, width: Width, form: Form) -> Option<OpcodeId> {
    let registry = OpcodeRegistry::global();
    let direct = registry.lookup(Opcode {
        mnemonic,
        width,
        form,
    });
    if direct.is_some() {
        return direct;
    }
    // Fall back to any registered width for this mnemonic/form combination,
    // preferring widths closest to the requested one (the first in registry
    // order on a tie).
    registry
        .widths_of(mnemonic, form)
        .iter()
        .copied()
        .min_by_key(|&id| registry.info(id).width().bits().abs_diff(width.bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RegFamily;

    fn parse(line: &str) -> Inst {
        parse_inst(line).unwrap_or_else(|e| panic!("failed to parse `{line}`: {e}"))
    }

    #[test]
    fn parses_paper_case_study_blocks() {
        assert_eq!(parse("pushq %rbx").info().name(), "PUSH64r");
        assert_eq!(parse("testl %r8d, %r8d").info().name(), "TEST32rr");
        assert_eq!(parse("xorl %r13d, %r13d").info().name(), "XOR32rr");
        assert_eq!(parse("addl %eax, 16(%rsp)").info().name(), "ADD32mr");
        assert_eq!(parse("shrq $5, 16(%rsp)").info().name(), "SHR64mi");
    }

    #[test]
    fn parses_memory_addressing_forms() {
        let inst = parse("movq 8(%rdi,%rax,4), %rcx");
        assert_eq!(inst.info().name(), "MOV64rm");
        let mem = inst.mem_operand().unwrap();
        assert_eq!(mem.disp, 8);
        assert_eq!(mem.scale, 4);
        assert_eq!(mem.base.unwrap().family(), RegFamily::Rdi);
        assert_eq!(mem.index.unwrap().family(), RegFamily::Rax);
    }

    #[test]
    fn disambiguates_scalar_and_vector_movq() {
        assert_eq!(parse("movq %rsi, %rdi").info().name(), "MOV64rr");
        assert_eq!(parse("movq %xmm1, %xmm0").info().name(), "MOVQrr");
        assert_eq!(parse("movsd (%rax), %xmm3").info().name(), "MOVSDrm");
    }

    #[test]
    fn parses_vector_and_fma_instructions() {
        assert_eq!(parse("addsd %xmm1, %xmm0").info().name(), "ADDSDrr");
        assert_eq!(parse("paddd (%rsi), %xmm2").info().name(), "PADDDrm");
        assert!(!parse("vfmadd231ps %ymm2, %ymm1, %ymm0").is_zero_idiom());
        assert_eq!(parse("vaddps %ymm1, %ymm0").info().name(), "VADDPSYrr");
    }

    #[test]
    fn parses_immediates_and_three_operand_forms() {
        assert_eq!(parse("imulq $8, %rbx, %rax").info().name(), "IMUL64rri");
        assert_eq!(
            parse("shufps $0x1b, %xmm1, %xmm0").info().name(),
            "SHUFPSrri"
        );
        assert_eq!(parse("pushq $42").info().name(), "PUSH64i");
        assert_eq!(parse("movl $-1, %eax").info().name(), "MOV32ri");
    }

    #[test]
    fn parses_no_operand_and_setcc() {
        assert_eq!(parse("nop").info().name(), "NOP32");
        assert_eq!(parse("cqo").info().name(), "CQO32");
        assert_eq!(parse("sete %al").info().name(), "SETE8r");
        assert_eq!(parse("movzbl (%rdi), %eax").info().name(), "MOVZ32rm");
    }

    #[test]
    fn block_parser_skips_comments_and_blank_lines() {
        let block =
            parse_block("# header\n\npushq %rbx\n// comment\nincl %eax ; decl %eax\n").unwrap();
        assert_eq!(block.len(), 3);
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            parse_inst("frobnicate %rax"),
            Err(ParseError::UnknownMnemonic(_))
        ));
        assert!(matches!(
            parse_inst("addl %zzz, %eax"),
            Err(ParseError::UnknownRegister(_))
        ));
        assert!(matches!(
            parse_inst("addl $x, %eax"),
            Err(ParseError::BadOperand(_))
        ));
    }

    #[test]
    fn display_parse_round_trip() {
        for text in [
            "pushq %rbx",
            "xorl %r13d, %r13d",
            "addl %eax, 16(%rsp)",
            "shrq $5, 16(%rsp)",
            "movq %rsi, %rdi",
            "addsd %xmm1, %xmm0",
            "imulq $8, %rbx, %rax",
        ] {
            let inst = parse(text);
            assert_eq!(inst.to_string(), text);
            let reparsed = parse(&inst.to_string());
            assert_eq!(reparsed, inst);
        }
    }

    /// The linear-scan resolver this module used before [`resolve_mnemonic`]
    /// looked names up with [`Mnemonic::from_att_name`], kept as the oracle
    /// the exhaustive test compares against.
    fn scanning_resolve_mnemonic(
        text: &str,
        operands: &[Operand],
    ) -> Result<(Mnemonic, Width), ParseError> {
        let lower = text.to_ascii_lowercase();

        // Exact match against mnemonics with no width suffix (SSE/AVX, setcc, nop, ...).
        for &m in Mnemonic::ALL {
            if !m.has_width_suffix() && m.att_name() == lower {
                // `movq`/`movd` (and `movsd`) are ambiguous between the SSE move and
                // a scalar integer spelling: prefer the vector reading only if a
                // vector register is actually involved.
                let ambiguous = matches!(m, Mnemonic::Movq | Mnemonic::Movd | Mnemonic::Movsd);
                if ambiguous && !has_vector_operand(operands) {
                    continue;
                }
                let width = if operands
                    .iter()
                    .any(|o| matches!(o, Operand::Reg(r) if r.width() == Width::B256))
                {
                    Width::B256
                } else if m.class().is_vector() {
                    Width::B128
                } else {
                    Width::B8
                };
                return Ok((m, width));
            }
        }

        // AVX `v`-prefixed spellings of SSE mnemonics (`vaddps`, `vpxor`, ...).
        if let Some(stripped) = lower.strip_prefix('v') {
            for &m in Mnemonic::ALL {
                if !m.has_width_suffix() && m.class().is_vector() && m.att_name() == stripped {
                    let width = if operands
                        .iter()
                        .any(|o| matches!(o, Operand::Reg(r) if r.width() == Width::B256))
                    {
                        Width::B256
                    } else {
                        Width::B128
                    };
                    return Ok((m, width));
                }
            }
        }

        // Suffix-carrying scalar mnemonics (including SSE spellings with a vector operand,
        // which were handled above).
        let suffix_width = |c: char| match c {
            'b' => Some(Width::B8),
            'w' => Some(Width::B16),
            'l' => Some(Width::B32),
            'q' => Some(Width::B64),
            _ => None,
        };

        // movz/movs encode both source and destination widths (e.g. `movzbl`);
        // the destination width is the final suffix character.
        for prefix in ["movz", "movs"] {
            if lower.starts_with(prefix) && lower.len() > prefix.len() + 1 {
                let dest = lower.chars().last().and_then(suffix_width);
                if let Some(width) = dest {
                    let m = if prefix == "movz" {
                        Mnemonic::Movzx
                    } else {
                        Mnemonic::Movsx
                    };
                    return Ok((m, width));
                }
            }
        }

        let (base, explicit_width) = match lower.chars().last().and_then(suffix_width) {
            Some(width) if lower.len() > 1 => (&lower[..lower.len() - 1], Some(width)),
            _ => (lower.as_str(), None),
        };

        let candidates = [base, lower.as_str()];
        for candidate in candidates {
            for &m in Mnemonic::ALL {
                if m.has_width_suffix() && m.att_name() == candidate {
                    let width = explicit_width
                        .filter(|_| candidate == base)
                        .or_else(|| {
                            operands.iter().find_map(|o| match o {
                                Operand::Reg(r) if !r.width().is_vector() => Some(r.width()),
                                _ => None,
                            })
                        })
                        .unwrap_or(Width::B32);
                    return Ok((m, width));
                }
            }
        }

        Err(ParseError::UnknownMnemonic(text.to_string()))
    }

    /// Every spelling the resolver is meant to accept: each mnemonic bare,
    /// with each width suffix it takes, `v`-prefixed, and every
    /// two-letter `movz*`/`movs*` form, in lower and upper case, plus a few
    /// names that must be rejected.
    fn resolver_spellings() -> Vec<String> {
        let mut spellings = Vec::new();
        for &m in Mnemonic::ALL {
            let name = m.att_name();
            spellings.push(name.to_string());
            if m.has_width_suffix() {
                spellings.extend(["b", "w", "l", "q"].map(|suffix| format!("{name}{suffix}")));
            }
            // Only vector mnemonics take a `v` prefix; the rest must fail.
            spellings.push(format!("v{name}"));
        }
        for prefix in ["movz", "movs"] {
            for source in ["b", "w", "l", "q"] {
                for dest in ["b", "w", "l", "q"] {
                    spellings.push(format!("{prefix}{source}{dest}"));
                }
            }
        }
        let upper: Vec<String> = spellings.iter().map(|s| s.to_ascii_uppercase()).collect();
        spellings.extend(upper);
        spellings.extend(
            ["", "v", "q", "frobnicate", "vadd", "vaddq", "movz", "movzb"].map(String::from),
        );
        spellings
    }

    #[test]
    fn the_lookup_resolver_agrees_with_the_linear_scan_on_every_spelling() {
        let reg = |name: &str| Operand::Reg(name.parse().expect("register parses"));
        let mem = Operand::Mem(MemRef {
            base: Some("%rdi".parse().expect("register parses")),
            index: None,
            scale: 1,
            disp: 8,
        });
        let operand_lists: Vec<Vec<Operand>> = vec![
            vec![],
            vec![reg("%rax")],
            vec![reg("%ecx"), reg("%edx")],
            vec![reg("%bx"), mem],
            vec![mem, reg("%al")],
            vec![reg("%xmm0"), reg("%xmm1")],
            vec![reg("%ymm0"), mem],
            vec![reg("%rax"), reg("%xmm2")],
            vec![Operand::Imm(7)],
            vec![mem, Operand::Imm(-1)],
        ];
        let spellings = resolver_spellings();
        for spelling in &spellings {
            for operands in &operand_lists {
                assert_eq!(
                    resolve_mnemonic(spelling, operands),
                    scanning_resolve_mnemonic(spelling, operands),
                    "`{spelling}` with {operands:?}"
                );
            }
        }
        assert!(spellings.len() > 2 * Mnemonic::ALL.len());
    }

    #[test]
    fn operands_split_on_top_level_commas_only() {
        assert_eq!(
            split_operands(" %rax ,8(%rdi, %rcx,4),  $5 "),
            ["%rax", "8(%rdi, %rcx,4)", "$5"]
        );
        assert_eq!(split_operands("%rax,,%rbx"), ["%rax", "", "%rbx"]);
        assert_eq!(split_operands("%rax,"), ["%rax"]);
        assert!(split_operands("   ").is_empty());
    }

    #[test]
    fn the_width_fallback_picks_the_closest_registered_width() {
        // `push` exists at 16 and 64 bits: 32 and 8 are closest to 16, 128
        // to 64.
        let name = |width| {
            lookup_opcode(Mnemonic::Push, width, Form::R)
                .map(|id| OpcodeRegistry::global().info(id).name())
        };
        assert_eq!(name(Width::B32), Some("PUSH16r"));
        assert_eq!(name(Width::B8), Some("PUSH16r"));
        assert_eq!(name(Width::B128), Some("PUSH64r"));
        // `bswap` exists at 32 and 64: 16 is closer to 32.
        assert_eq!(
            lookup_opcode(Mnemonic::Bswap, Width::B16, Form::R)
                .map(|id| OpcodeRegistry::global().info(id).name()),
            Some("BSWAP32r")
        );
        assert_eq!(lookup_opcode(Mnemonic::Lea, Width::B64, Form::Rr), None);
    }
}
