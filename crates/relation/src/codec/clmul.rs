//! CRC-32 by carry-less multiplication: the `PCLMULQDQ` folding of Gopal
//! et al., *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//! Instruction* (Intel, 2009), for the reflected IEEE polynomial, with the
//! constants zlib and Linux use. Four 128-bit lanes fold 64 bytes a step;
//! the lanes fold into one, the 128-bit remainder into 64 and then 32
//! bits, and a Barrett reduction leaves the CRC register.
//!
//! This file holds the repository's only `unsafe`: the call into the
//! `pclmulqdq` code, behind the runtime check that the CPU has it.

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
    _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// Inputs shorter than this stay on the table code: below it, setting up
/// and reducing the four lanes costs more than the folding saves.
const MIN_LEN: usize = 128;

/// `x^(512+32) mod P` and `x^(512-32) mod P`, bit-reflected: a lane
/// folded across 64 bytes (low half by the first, high by the second).
const K_512: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
/// `x^(128+32) mod P` and `x^(128-32) mod P`, bit-reflected: the same
/// across 16 bytes, lanes into one and one into the next block.
const K_128: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
/// `x^64 mod P`, bit-reflected: the 64-to-32-bit fold.
const K_64: i64 = 0x1_63cd_6124;
/// The polynomial `P'` and the Barrett constant `μ'`, bit-reflected.
const BARRETT: (i64, i64) = (0x1_db71_0641, 0x1_f701_1641);

/// Folds the whole 16-byte blocks of `bytes` into the CRC register `crc`
/// when this CPU has `pclmulqdq` and `bytes` is long enough to pay for
/// it. Returns the register and the bytes left for the table code: the
/// last `len % 16`, or all of them when the fast path does not run.
pub(super) fn fold(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
    if bytes.len() < MIN_LEN || !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return (crc, bytes);
    }
    let (blocks, tail) = bytes.split_at(bytes.len() & !15);
    // SAFETY: `fold_blocks` needs `pclmulqdq` (and SSE2, which every
    // x86_64 CPU has); `is_x86_feature_detected!` just confirmed this
    // CPU supports it.
    (unsafe { fold_blocks(crc, blocks) }, tail)
}

/// One 16-byte block as a vector, first byte lowest (a safe load).
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn load(block: &[u8]) -> __m128i {
    let half = |at: usize| i64::from_le_bytes(block[at..at + 8].try_into().expect("8 bytes"));
    _mm_set_epi64x(half(8), half(0))
}

/// `x` carried `k`'s distance forward: its low half times `k`'s low half,
/// plus its high half times `k`'s high half.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn carry(x: __m128i, k: __m128i) -> __m128i {
    _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(x, k),
        _mm_clmulepi64_si128::<0x11>(x, k),
    )
}

/// The CRC register after `blocks`: a whole number of 16-byte blocks, 64
/// bytes at least.
#[target_feature(enable = "pclmulqdq")]
fn fold_blocks(crc: u32, blocks: &[u8]) -> u32 {
    debug_assert!(blocks.len() >= 64 && blocks.len().is_multiple_of(16));
    let mut lines = blocks.chunks_exact(64);
    let first = lines.next().expect("64 bytes at least");
    let mut lanes = [0, 16, 32, 48].map(|at| load(&first[at..at + 16]));
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
    let k_512 = _mm_set_epi64x(K_512.1, K_512.0);
    for line in &mut lines {
        for (at, lane) in (0..64).step_by(16).zip(&mut lanes) {
            *lane = _mm_xor_si128(carry(*lane, k_512), load(&line[at..at + 16]));
        }
    }
    let k_128 = _mm_set_epi64x(K_128.1, K_128.0);
    let mut x = lanes[0];
    for lane in &lanes[1..] {
        x = _mm_xor_si128(carry(x, k_128), *lane);
    }
    for block in lines.remainder().chunks_exact(16) {
        x = _mm_xor_si128(carry(x, k_128), load(block));
    }
    // 128 → 64 bits: the low half times `x^(128-32)`, into the high half.
    x = _mm_xor_si128(
        _mm_srli_si128::<8>(x),
        _mm_clmulepi64_si128::<0x10>(x, k_128),
    );
    // 64 → 32 bits.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    x = _mm_xor_si128(
        _mm_srli_si128::<4>(x),
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K_64)),
    );
    // Barrett reduction: the quotient by `μ'`, times `P'`, off `x`.
    let barrett = _mm_set_epi64x(BARRETT.1, BARRETT.0);
    let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett);
    let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), barrett);
    _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, qp))) as u32
}
