//! Instruction mnemonics and their coarse operation classes.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Coarse class of an operation, used by the reference microarchitectures to
/// assign "true" latencies and port usage, by the corpus generator to build
/// application-specific instruction mixes, and by the evaluation to bucket
/// blocks into BHive-style categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Simple scalar integer ALU operation (add, sub, logic, compare, ...).
    IntAlu,
    /// Scalar integer multiply.
    IntMul,
    /// Scalar integer divide.
    IntDiv,
    /// Shift or rotate.
    Shift,
    /// Register-to-register or immediate moves (including movzx/movsx/cmov/set).
    Mov,
    /// Address computation (`lea`).
    Lea,
    /// Stack push/pop.
    Stack,
    /// Bit scan / population count style operations.
    BitScan,
    /// Vector integer ALU operation.
    VecAlu,
    /// Vector integer multiply.
    VecMul,
    /// Vector shuffle / permute / pack / unpack / blend.
    VecShuffle,
    /// Vector (or scalar SSE) register moves and loads/stores.
    VecMov,
    /// Floating point add/sub/min/max/compare.
    FpAdd,
    /// Floating point multiply.
    FpMul,
    /// Floating point divide.
    FpDiv,
    /// Floating point square root.
    FpSqrt,
    /// Fused multiply-add.
    Fma,
    /// Conversions between integer and floating point.
    Convert,
    /// No-operation.
    Nop,
}

impl OpClass {
    /// True if the class executes on the vector/floating-point side of the machine.
    pub fn is_vector(self) -> bool {
        matches!(
            self,
            OpClass::VecAlu
                | OpClass::VecMul
                | OpClass::VecShuffle
                | OpClass::VecMov
                | OpClass::FpAdd
                | OpClass::FpMul
                | OpClass::FpDiv
                | OpClass::FpSqrt
                | OpClass::Fma
                | OpClass::Convert
        )
    }
}

macro_rules! mnemonics {
    ($( $variant:ident => ($att:literal, $class:expr, wf: $wf:expr, rf: $rf:expr, suffix: $suffix:expr) ),+ $(,)?) => {
        /// An instruction mnemonic.
        ///
        /// Mnemonic × operand width × operand form yields an [`crate::Opcode`]
        /// (e.g. `Add` × 32 bits × `mr` is `ADD32mr`).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        #[allow(missing_docs)]
        pub enum Mnemonic {
            $($variant),+
        }

        impl Mnemonic {
            /// Every mnemonic, in a fixed order.
            pub const ALL: &'static [Mnemonic] = &[$(Mnemonic::$variant),+];

            /// The AT&T base name (without a width suffix), e.g. `"add"`.
            pub fn att_name(self) -> &'static str {
                match self { $(Mnemonic::$variant => $att),+ }
            }

            /// The mnemonic whose AT&T base name is exactly `name` (lower
            /// case, no width suffix): the inverse of [`Mnemonic::att_name`].
            pub(crate) fn from_att_name(name: &str) -> Option<Mnemonic> {
                match name { $($att => Some(Mnemonic::$variant),)+ _ => None }
            }

            /// The coarse operation class.
            pub fn class(self) -> OpClass {
                match self { $(Mnemonic::$variant => $class),+ }
            }

            /// True if the instruction writes the status flags.
            pub fn writes_flags(self) -> bool {
                match self { $(Mnemonic::$variant => $wf),+ }
            }

            /// True if the instruction reads the status flags.
            pub fn reads_flags(self) -> bool {
                match self { $(Mnemonic::$variant => $rf),+ }
            }

            /// True if the AT&T spelling takes a width suffix (`b`/`w`/`l`/`q`).
            pub fn has_width_suffix(self) -> bool {
                match self { $(Mnemonic::$variant => $suffix),+ }
            }
        }
    };
}

mnemonics! {
    // Scalar integer ALU.
    Add => ("add", OpClass::IntAlu, wf: true, rf: false, suffix: true),
    Sub => ("sub", OpClass::IntAlu, wf: true, rf: false, suffix: true),
    And => ("and", OpClass::IntAlu, wf: true, rf: false, suffix: true),
    Or => ("or", OpClass::IntAlu, wf: true, rf: false, suffix: true),
    Xor => ("xor", OpClass::IntAlu, wf: true, rf: false, suffix: true),
    Adc => ("adc", OpClass::IntAlu, wf: true, rf: true, suffix: true),
    Sbb => ("sbb", OpClass::IntAlu, wf: true, rf: true, suffix: true),
    Cmp => ("cmp", OpClass::IntAlu, wf: true, rf: false, suffix: true),
    Test => ("test", OpClass::IntAlu, wf: true, rf: false, suffix: true),
    Inc => ("inc", OpClass::IntAlu, wf: true, rf: false, suffix: true),
    Dec => ("dec", OpClass::IntAlu, wf: true, rf: false, suffix: true),
    Neg => ("neg", OpClass::IntAlu, wf: true, rf: false, suffix: true),
    Not => ("not", OpClass::IntAlu, wf: false, rf: false, suffix: true),
    // Multiplies and divides.
    Imul => ("imul", OpClass::IntMul, wf: true, rf: false, suffix: true),
    Mul => ("mul", OpClass::IntMul, wf: true, rf: false, suffix: true),
    Div => ("div", OpClass::IntDiv, wf: true, rf: false, suffix: true),
    Idiv => ("idiv", OpClass::IntDiv, wf: true, rf: false, suffix: true),
    // Shifts and rotates.
    Shl => ("shl", OpClass::Shift, wf: true, rf: false, suffix: true),
    Shr => ("shr", OpClass::Shift, wf: true, rf: false, suffix: true),
    Sar => ("sar", OpClass::Shift, wf: true, rf: false, suffix: true),
    Rol => ("rol", OpClass::Shift, wf: true, rf: false, suffix: true),
    Ror => ("ror", OpClass::Shift, wf: true, rf: false, suffix: true),
    // Moves.
    Mov => ("mov", OpClass::Mov, wf: false, rf: false, suffix: true),
    Movzx => ("movz", OpClass::Mov, wf: false, rf: false, suffix: true),
    Movsx => ("movs", OpClass::Mov, wf: false, rf: false, suffix: true),
    Lea => ("lea", OpClass::Lea, wf: false, rf: false, suffix: true),
    Xchg => ("xchg", OpClass::Mov, wf: false, rf: false, suffix: true),
    Bswap => ("bswap", OpClass::Mov, wf: false, rf: false, suffix: true),
    // Conditional moves / sets (one representative per condition group).
    Cmove => ("cmove", OpClass::Mov, wf: false, rf: true, suffix: true),
    Cmovne => ("cmovne", OpClass::Mov, wf: false, rf: true, suffix: true),
    Cmovl => ("cmovl", OpClass::Mov, wf: false, rf: true, suffix: true),
    Cmovg => ("cmovg", OpClass::Mov, wf: false, rf: true, suffix: true),
    Cmovb => ("cmovb", OpClass::Mov, wf: false, rf: true, suffix: true),
    Cmova => ("cmova", OpClass::Mov, wf: false, rf: true, suffix: true),
    Sete => ("sete", OpClass::Mov, wf: false, rf: true, suffix: false),
    Setne => ("setne", OpClass::Mov, wf: false, rf: true, suffix: false),
    Setl => ("setl", OpClass::Mov, wf: false, rf: true, suffix: false),
    Setg => ("setg", OpClass::Mov, wf: false, rf: true, suffix: false),
    Setb => ("setb", OpClass::Mov, wf: false, rf: true, suffix: false),
    Seta => ("seta", OpClass::Mov, wf: false, rf: true, suffix: false),
    // Stack operations.
    Push => ("push", OpClass::Stack, wf: false, rf: false, suffix: true),
    Pop => ("pop", OpClass::Stack, wf: false, rf: false, suffix: true),
    // Bit scans.
    Bsf => ("bsf", OpClass::BitScan, wf: true, rf: false, suffix: true),
    Bsr => ("bsr", OpClass::BitScan, wf: true, rf: false, suffix: true),
    Popcnt => ("popcnt", OpClass::BitScan, wf: true, rf: false, suffix: true),
    Lzcnt => ("lzcnt", OpClass::BitScan, wf: true, rf: false, suffix: true),
    Tzcnt => ("tzcnt", OpClass::BitScan, wf: true, rf: false, suffix: true),
    // Sign extensions into %rdx and no-ops.
    Cdq => ("cdq", OpClass::IntAlu, wf: false, rf: false, suffix: false),
    Cqo => ("cqo", OpClass::IntAlu, wf: false, rf: false, suffix: false),
    Nop => ("nop", OpClass::Nop, wf: false, rf: false, suffix: false),
    // SSE/AVX moves (scalar and packed).
    Movss => ("movss", OpClass::VecMov, wf: false, rf: false, suffix: false),
    Movsd => ("movsd", OpClass::VecMov, wf: false, rf: false, suffix: false),
    Movaps => ("movaps", OpClass::VecMov, wf: false, rf: false, suffix: false),
    Movups => ("movups", OpClass::VecMov, wf: false, rf: false, suffix: false),
    Movapd => ("movapd", OpClass::VecMov, wf: false, rf: false, suffix: false),
    Movupd => ("movupd", OpClass::VecMov, wf: false, rf: false, suffix: false),
    Movdqa => ("movdqa", OpClass::VecMov, wf: false, rf: false, suffix: false),
    Movdqu => ("movdqu", OpClass::VecMov, wf: false, rf: false, suffix: false),
    Movd => ("movd", OpClass::VecMov, wf: false, rf: false, suffix: false),
    Movq => ("movq", OpClass::VecMov, wf: false, rf: false, suffix: false),
    Vbroadcastss => ("vbroadcastss", OpClass::VecMov, wf: false, rf: false, suffix: false),
    // Scalar floating point arithmetic.
    Addss => ("addss", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Addsd => ("addsd", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Subss => ("subss", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Subsd => ("subsd", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Mulss => ("mulss", OpClass::FpMul, wf: false, rf: false, suffix: false),
    Mulsd => ("mulsd", OpClass::FpMul, wf: false, rf: false, suffix: false),
    Divss => ("divss", OpClass::FpDiv, wf: false, rf: false, suffix: false),
    Divsd => ("divsd", OpClass::FpDiv, wf: false, rf: false, suffix: false),
    Minss => ("minss", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Maxss => ("maxss", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Minsd => ("minsd", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Maxsd => ("maxsd", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Sqrtss => ("sqrtss", OpClass::FpSqrt, wf: false, rf: false, suffix: false),
    Sqrtsd => ("sqrtsd", OpClass::FpSqrt, wf: false, rf: false, suffix: false),
    Ucomiss => ("ucomiss", OpClass::FpAdd, wf: true, rf: false, suffix: false),
    Ucomisd => ("ucomisd", OpClass::FpAdd, wf: true, rf: false, suffix: false),
    // Packed floating point arithmetic.
    Addps => ("addps", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Addpd => ("addpd", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Subps => ("subps", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Subpd => ("subpd", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Mulps => ("mulps", OpClass::FpMul, wf: false, rf: false, suffix: false),
    Mulpd => ("mulpd", OpClass::FpMul, wf: false, rf: false, suffix: false),
    Divps => ("divps", OpClass::FpDiv, wf: false, rf: false, suffix: false),
    Divpd => ("divpd", OpClass::FpDiv, wf: false, rf: false, suffix: false),
    Minps => ("minps", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Maxps => ("maxps", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    Sqrtps => ("sqrtps", OpClass::FpSqrt, wf: false, rf: false, suffix: false),
    Sqrtpd => ("sqrtpd", OpClass::FpSqrt, wf: false, rf: false, suffix: false),
    Andps => ("andps", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Andpd => ("andpd", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Orps => ("orps", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Orpd => ("orpd", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Xorps => ("xorps", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Xorpd => ("xorpd", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Shufps => ("shufps", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    Unpcklps => ("unpcklps", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    Unpckhps => ("unpckhps", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    Blendps => ("blendps", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    Cmpps => ("cmpps", OpClass::FpAdd, wf: false, rf: false, suffix: false),
    // Packed integer arithmetic.
    Pand => ("pand", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Por => ("por", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Pxor => ("pxor", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Paddb => ("paddb", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Paddw => ("paddw", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Paddd => ("paddd", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Paddq => ("paddq", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Psubb => ("psubb", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Psubw => ("psubw", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Psubd => ("psubd", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Psubq => ("psubq", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Pmulld => ("pmulld", OpClass::VecMul, wf: false, rf: false, suffix: false),
    Pmullw => ("pmullw", OpClass::VecMul, wf: false, rf: false, suffix: false),
    Pmulhw => ("pmulhw", OpClass::VecMul, wf: false, rf: false, suffix: false),
    Pmaddwd => ("pmaddwd", OpClass::VecMul, wf: false, rf: false, suffix: false),
    Pcmpeqb => ("pcmpeqb", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Pcmpeqd => ("pcmpeqd", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Pcmpgtd => ("pcmpgtd", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Pminsd => ("pminsd", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Pmaxsd => ("pmaxsd", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Pabsd => ("pabsd", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Pavgb => ("pavgb", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Psllw => ("psllw", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Pslld => ("pslld", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Psllq => ("psllq", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Psrlw => ("psrlw", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Psrld => ("psrld", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Psrlq => ("psrlq", OpClass::VecAlu, wf: false, rf: false, suffix: false),
    Pshufd => ("pshufd", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    Pshufb => ("pshufb", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    Punpcklbw => ("punpcklbw", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    Punpckldq => ("punpckldq", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    Punpcklqdq => ("punpcklqdq", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    Packssdw => ("packssdw", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    Packuswb => ("packuswb", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    Pblendw => ("pblendw", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    Pmovzxbw => ("pmovzxbw", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    Pmovsxbw => ("pmovsxbw", OpClass::VecShuffle, wf: false, rf: false, suffix: false),
    // Conversions.
    Cvtsi2ss => ("cvtsi2ss", OpClass::Convert, wf: false, rf: false, suffix: false),
    Cvtsi2sd => ("cvtsi2sd", OpClass::Convert, wf: false, rf: false, suffix: false),
    Cvttss2si => ("cvttss2si", OpClass::Convert, wf: false, rf: false, suffix: false),
    Cvttsd2si => ("cvttsd2si", OpClass::Convert, wf: false, rf: false, suffix: false),
    Cvtss2sd => ("cvtss2sd", OpClass::Convert, wf: false, rf: false, suffix: false),
    Cvtsd2ss => ("cvtsd2ss", OpClass::Convert, wf: false, rf: false, suffix: false),
    Cvtdq2ps => ("cvtdq2ps", OpClass::Convert, wf: false, rf: false, suffix: false),
    Cvtps2dq => ("cvtps2dq", OpClass::Convert, wf: false, rf: false, suffix: false),
    // Fused multiply-add (AVX2/FMA, three-operand destructive).
    Vfmadd231ss => ("vfmadd231ss", OpClass::Fma, wf: false, rf: false, suffix: false),
    Vfmadd231sd => ("vfmadd231sd", OpClass::Fma, wf: false, rf: false, suffix: false),
    Vfmadd231ps => ("vfmadd231ps", OpClass::Fma, wf: false, rf: false, suffix: false),
    Vfmadd231pd => ("vfmadd231pd", OpClass::Fma, wf: false, rf: false, suffix: false),
}

impl fmt::Display for Mnemonic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.att_name())
    }
}

impl Mnemonic {
    /// The uppercase LLVM-style name fragment used in opcode names
    /// (e.g. `ADD` for `add`, `VFMADD231PS` for `vfmadd231ps`).
    pub fn llvm_name(self) -> String {
        self.att_name().to_ascii_uppercase()
    }

    /// True if this mnemonic's only explicit-destination form writes memory
    /// implicitly through the stack pointer.
    pub fn is_stack_op(self) -> bool {
        matches!(self, Mnemonic::Push | Mnemonic::Pop)
    }

    /// True if the mnemonic can act as a zero idiom when both operands are the
    /// same register (`xor %eax, %eax`, `pxor %xmm0, %xmm0`, ...).
    pub fn is_zero_idiom_capable(self) -> bool {
        matches!(
            self,
            Mnemonic::Xor
                | Mnemonic::Sub
                | Mnemonic::Pxor
                | Mnemonic::Xorps
                | Mnemonic::Xorpd
                | Mnemonic::Psubb
                | Mnemonic::Psubw
                | Mnemonic::Psubd
                | Mnemonic::Psubq
                | Mnemonic::Pcmpeqb
                | Mnemonic::Pcmpeqd
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_mnemonics_have_nonempty_unique_names() {
        let mut seen = std::collections::HashSet::new();
        for &m in Mnemonic::ALL {
            assert!(!m.att_name().is_empty());
            assert!(
                seen.insert(m.att_name()),
                "duplicate AT&T name {}",
                m.att_name()
            );
            assert_eq!(Mnemonic::from_att_name(m.att_name()), Some(m));
        }
        assert!(Mnemonic::ALL.len() >= 100, "expected a rich mnemonic set");
    }

    #[test]
    fn class_consistency() {
        assert_eq!(Mnemonic::Add.class(), OpClass::IntAlu);
        assert_eq!(Mnemonic::Mulsd.class(), OpClass::FpMul);
        assert!(Mnemonic::Paddd.class().is_vector());
        assert!(!Mnemonic::Add.class().is_vector());
    }

    #[test]
    fn flags_behaviour() {
        assert!(Mnemonic::Add.writes_flags());
        assert!(!Mnemonic::Mov.writes_flags());
        assert!(Mnemonic::Cmove.reads_flags());
        assert!(Mnemonic::Adc.reads_flags() && Mnemonic::Adc.writes_flags());
    }

    #[test]
    fn zero_idiom_capability() {
        assert!(Mnemonic::Xor.is_zero_idiom_capable());
        assert!(Mnemonic::Pxor.is_zero_idiom_capable());
        assert!(!Mnemonic::Add.is_zero_idiom_capable());
    }
}
