//! The opcode registry: the fixed universe of opcodes the workspace operates on.
//!
//! The registry assigns each opcode a dense [`OpcodeId`], which is the index
//! used by simulator parameter tables (`difftune-sim`), the reference
//! microarchitecture tables (`difftune-cpu`), and the surrogate's embedding
//! table (`difftune-surrogate`). The registry is deterministic: the same
//! opcode always receives the same id.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::mnemonic::OpClass;
use crate::opcode::{DestKind, Form, Opcode, OpcodeInfo, Width};
use crate::{Mnemonic, RegFamily};

/// A dense identifier for an opcode within an [`OpcodeRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpcodeId(pub u16);

impl OpcodeId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpcodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

/// The universe of opcodes.
#[derive(Debug, Clone)]
pub struct OpcodeRegistry {
    infos: Vec<OpcodeInfo>,
    by_name: HashMap<String, OpcodeId>,
    by_opcode: HashMap<Opcode, OpcodeId>,
    /// Every width of a `(mnemonic, form)` pair, in id order.
    by_mnemonic_form: HashMap<(Mnemonic, Form), Vec<OpcodeId>>,
}

const SCALAR_WIDTHS: &[Width] = &[Width::B8, Width::B16, Width::B32, Width::B64];
const WIDE_WIDTHS: &[Width] = &[Width::B16, Width::B32, Width::B64];
const XMM: &[Width] = &[Width::B128];
const XMM_YMM: &[Width] = &[Width::B128, Width::B256];

const ALU_FORMS: &[Form] = &[Form::Rr, Form::Ri, Form::Rm, Form::Mr, Form::Mi];
const UNARY_FORMS: &[Form] = &[Form::R, Form::M];
const SHIFT_FORMS: &[Form] = &[Form::Ri, Form::Mi, Form::Rr];
const RR_RM: &[Form] = &[Form::Rr, Form::Rm];
const VEC_MOV_FORMS: &[Form] = &[Form::Rr, Form::Rm, Form::Mr];

/// Scalar SSE mnemonics that only exist at 128-bit width.
fn is_scalar_sse(m: Mnemonic) -> bool {
    use Mnemonic::*;
    matches!(
        m,
        Movss
            | Movsd
            | Movd
            | Movq
            | Addss
            | Addsd
            | Subss
            | Subsd
            | Mulss
            | Mulsd
            | Divss
            | Divsd
            | Minss
            | Maxss
            | Minsd
            | Maxsd
            | Sqrtss
            | Sqrtsd
            | Ucomiss
            | Ucomisd
            | Cvtss2sd
            | Cvtsd2ss
            | Cvtsi2ss
            | Cvtsi2sd
            | Cvttss2si
            | Cvttsd2si
            | Vfmadd231ss
            | Vfmadd231sd
    )
}

/// The (widths, forms) grid of valid opcodes for a mnemonic.
fn valid_combos(m: Mnemonic) -> (&'static [Width], &'static [Form]) {
    use Mnemonic::*;
    match m {
        Add | Sub | And | Or | Xor | Adc | Sbb | Cmp | Test => (SCALAR_WIDTHS, ALU_FORMS),
        Inc | Dec | Neg | Not => (SCALAR_WIDTHS, UNARY_FORMS),
        Imul => (WIDE_WIDTHS, &[Form::Rr, Form::Rm, Form::Rri]),
        Mul | Div | Idiv => (SCALAR_WIDTHS, UNARY_FORMS),
        Shl | Shr | Sar | Rol | Ror => (SCALAR_WIDTHS, SHIFT_FORMS),
        Mov => (SCALAR_WIDTHS, ALU_FORMS),
        Movzx | Movsx => (WIDE_WIDTHS, RR_RM),
        Lea => (WIDE_WIDTHS, &[Form::Rm]),
        Xchg => (SCALAR_WIDTHS, &[Form::Rr, Form::Mr]),
        Bswap => (&[Width::B32, Width::B64], &[Form::R]),
        Cmove | Cmovne | Cmovl | Cmovg | Cmovb | Cmova => (WIDE_WIDTHS, RR_RM),
        Sete | Setne | Setl | Setg | Setb | Seta => (&[Width::B8], UNARY_FORMS),
        Push => (&[Width::B16, Width::B64], &[Form::R, Form::M, Form::I]),
        Pop => (&[Width::B16, Width::B64], UNARY_FORMS),
        Bsf | Bsr | Popcnt | Lzcnt | Tzcnt => (WIDE_WIDTHS, RR_RM),
        Cdq | Cqo | Nop => (&[Width::B32], &[Form::NoOperands]),
        Movaps | Movups | Movapd | Movupd | Movdqa | Movdqu => (XMM_YMM, VEC_MOV_FORMS),
        Movss | Movsd | Movd | Movq => (XMM, VEC_MOV_FORMS),
        Vbroadcastss => (XMM_YMM, RR_RM),
        // Shuffles/blends/compares that carry an immediate control operand.
        Shufps | Blendps | Pblendw | Cmpps | Pshufd => (XMM_YMM, &[Form::Rri, Form::Rmi]),
        m if is_scalar_sse(m) => (XMM, RR_RM),
        // Everything else is a packed vector operation available at 128 and 256 bits.
        _ => (XMM_YMM, RR_RM),
    }
}

/// Computes the destination-access kind for a mnemonic.
fn dest_kind(m: Mnemonic, form: Form) -> DestKind {
    use Mnemonic::*;
    if matches!(form, Form::I | Form::NoOperands) {
        return DestKind::None;
    }
    match m {
        Cmp | Test | Ucomiss | Ucomisd | Push | Nop => DestKind::None,
        Mov | Movzx | Movsx | Lea | Pop | Sete | Setne | Setl | Setg | Setb | Seta | Bsf | Bsr
        | Popcnt | Lzcnt | Tzcnt | Bswap | Movss | Movsd | Movaps | Movups | Movapd | Movupd
        | Movdqa | Movdqu | Movd | Movq | Vbroadcastss | Cvtsi2ss | Cvtsi2sd | Cvttss2si
        | Cvttsd2si | Cvtss2sd | Cvtsd2ss | Cvtdq2ps | Cvtps2dq | Sqrtss | Sqrtsd | Sqrtps
        | Sqrtpd | Pshufd | Pmovzxbw | Pmovsxbw | Pabsd => DestKind::WriteOnly,
        // Unary read-modify-write and all destructive binary operations.
        _ => DestKind::ReadWrite,
    }
}

/// Computes (loads, stores) for a mnemonic at a form.
fn memory_behaviour(m: Mnemonic, form: Form, dest: DestKind) -> (bool, bool) {
    use Mnemonic::*;
    match m {
        Push => (matches!(form, Form::M), true),
        Pop => (true, matches!(form, Form::M)),
        Lea => (false, false),
        _ => match form {
            // Memory in a pure source position.
            Form::Rm | Form::Rmi => (true, false),
            // Memory in the destination slot: loads iff the destination is also
            // read (read-modify-write like `addl %eax, (%rsp)`), stores iff the
            // destination is written at all. `cmpl $0, (%rsp)` only loads.
            Form::Mr | Form::Mi | Form::M => {
                let written = dest != DestKind::None;
                let read = dest != DestKind::WriteOnly;
                (read, written)
            }
            _ => (false, false),
        },
    }
}

/// Computes implicit register reads/writes for a mnemonic.
fn implicit_regs(m: Mnemonic) -> (Vec<RegFamily>, Vec<RegFamily>) {
    use Mnemonic::*;
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    match m {
        Push | Pop => {
            reads.push(RegFamily::Rsp);
            writes.push(RegFamily::Rsp);
        }
        Mul | Imul | Div | Idiv => {
            reads.push(RegFamily::Rax);
            writes.push(RegFamily::Rax);
            if matches!(m, Div | Idiv) {
                reads.push(RegFamily::Rdx);
            }
            writes.push(RegFamily::Rdx);
        }
        Cdq | Cqo => {
            reads.push(RegFamily::Rax);
            writes.push(RegFamily::Rdx);
        }
        _ => {}
    }
    if m.reads_flags() {
        reads.push(RegFamily::Flags);
    }
    if m.writes_flags() {
        writes.push(RegFamily::Flags);
    }
    (reads, writes)
}

impl OpcodeRegistry {
    /// Builds the full opcode universe.
    pub fn full() -> Self {
        let mut infos = Vec::new();
        let mut by_name = HashMap::new();
        let mut by_opcode = HashMap::new();
        let mut by_mnemonic_form: HashMap<_, Vec<_>> = HashMap::new();
        for &mnemonic in Mnemonic::ALL {
            let (widths, forms) = valid_combos(mnemonic);
            for &width in widths {
                for &form in forms {
                    let opcode = Opcode {
                        mnemonic,
                        width,
                        form,
                    };
                    let dest = dest_kind(mnemonic, form);
                    let (loads, stores) = memory_behaviour(mnemonic, form, dest);
                    let (implicit_reads, implicit_writes) = implicit_regs(mnemonic);
                    let info = OpcodeInfo::new(
                        opcode,
                        dest,
                        loads,
                        stores,
                        implicit_reads,
                        implicit_writes,
                    );
                    let id = OpcodeId(infos.len() as u16);
                    by_name.insert(info.name().to_string(), id);
                    by_opcode.insert(opcode, id);
                    by_mnemonic_form
                        .entry((mnemonic, form))
                        .or_default()
                        .push(id);
                    infos.push(info);
                }
            }
        }
        OpcodeRegistry {
            infos,
            by_name,
            by_opcode,
            by_mnemonic_form,
        }
    }

    /// The process-wide shared registry.
    ///
    /// The opcode universe is fixed, so all crates in the workspace share this
    /// instance; [`crate::Inst`] semantic queries resolve against it.
    pub fn global() -> &'static OpcodeRegistry {
        static GLOBAL: OnceLock<OpcodeRegistry> = OnceLock::new();
        GLOBAL.get_or_init(OpcodeRegistry::full)
    }

    /// Number of opcodes in the registry.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// True if the registry contains no opcodes (never the case for [`Self::full`]).
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// The static description of an opcode.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this registry.
    pub fn info(&self, id: OpcodeId) -> &OpcodeInfo {
        &self.infos[id.index()]
    }

    /// Looks up an opcode id by its LLVM-style name (e.g. `"ADD32mr"`).
    pub fn by_name(&self, name: &str) -> Option<OpcodeId> {
        self.by_name.get(name).copied()
    }

    /// Looks up an opcode id by its structured identity.
    pub fn lookup(&self, opcode: Opcode) -> Option<OpcodeId> {
        self.by_opcode.get(&opcode).copied()
    }

    /// Every opcode of `mnemonic` at `form`, one per registered width, in id
    /// order (empty when the pair has no opcode).
    pub(crate) fn widths_of(&self, mnemonic: Mnemonic, form: Form) -> &[OpcodeId] {
        self.by_mnemonic_form
            .get(&(mnemonic, form))
            .map_or(&[], Vec::as_slice)
    }

    /// Iterates over all `(id, info)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (OpcodeId, &OpcodeInfo)> {
        self.infos
            .iter()
            .enumerate()
            .map(|(i, info)| (OpcodeId(i as u16), info))
    }

    /// All opcode ids whose mnemonic class matches `class`.
    pub fn ids_with_class(&self, class: OpClass) -> Vec<OpcodeId> {
        self.iter()
            .filter(|(_, info)| info.class() == class)
            .map(|(id, _)| id)
            .collect()
    }
}

impl Default for OpcodeRegistry {
    fn default() -> Self {
        OpcodeRegistry::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_size_is_in_paper_ballpark() {
        let registry = OpcodeRegistry::full();
        assert!(
            registry.len() >= 600 && registry.len() <= 1100,
            "expected a few hundred opcodes like the paper's 837, got {}",
            registry.len()
        );
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let registry = OpcodeRegistry::full();
        assert_eq!(registry.by_name.len(), registry.len());
        for (id, info) in registry.iter() {
            assert_eq!(registry.by_name(info.name()), Some(id));
            assert_eq!(registry.lookup(info.opcode()), Some(id));
            assert!(registry
                .widths_of(info.mnemonic(), info.form())
                .contains(&id));
        }
    }

    #[test]
    fn paper_case_study_opcodes_exist() {
        let registry = OpcodeRegistry::full();
        for name in [
            "PUSH64r", "XOR32rr", "ADD32mr", "SHR64mi", "TEST32rr", "MOV32ri",
        ] {
            assert!(registry.by_name(name).is_some(), "missing opcode {name}");
        }
    }

    #[test]
    fn semantics_of_known_opcodes() {
        let registry = OpcodeRegistry::full();
        let push = registry.info(registry.by_name("PUSH64r").unwrap());
        assert!(push.stores() && !push.loads());
        assert!(push.implicit_writes().contains(&RegFamily::Rsp));

        let pop = registry.info(registry.by_name("POP64r").unwrap());
        assert!(pop.loads() && !pop.stores());

        let add_mr = registry.info(registry.by_name("ADD32mr").unwrap());
        assert!(
            add_mr.loads() && add_mr.stores(),
            "RMW must both load and store"
        );

        let mov_mr = registry.info(registry.by_name("MOV32mr").unwrap());
        assert!(!mov_mr.loads() && mov_mr.stores(), "store must not load");

        let cmp_mi = registry.info(registry.by_name("CMP32mi").unwrap());
        assert!(
            cmp_mi.loads() && !cmp_mi.stores(),
            "compare-with-memory only loads"
        );

        let lea = registry.info(registry.by_name("LEA64rm").unwrap());
        assert!(
            !lea.loads() && !lea.stores(),
            "lea computes an address without touching memory"
        );

        let xor = registry.info(registry.by_name("XOR32rr").unwrap());
        assert!(xor.implicit_writes().contains(&RegFamily::Flags));
    }

    #[test]
    fn global_registry_is_shared() {
        let a = OpcodeRegistry::global();
        let b = OpcodeRegistry::global();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.len(), OpcodeRegistry::full().len());
    }

    #[test]
    fn class_filter_returns_nonempty_sets() {
        let registry = OpcodeRegistry::full();
        for class in [
            OpClass::IntAlu,
            OpClass::FpMul,
            OpClass::VecAlu,
            OpClass::Stack,
        ] {
            assert!(
                !registry.ids_with_class(class).is_empty(),
                "no opcodes for {class:?}"
            );
        }
    }
}
