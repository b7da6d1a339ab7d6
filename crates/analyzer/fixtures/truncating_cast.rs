//! Fixture: truncating-cast — bare narrowing casts in (what the fixture policy
//! treats as) word math, next to the safe forms.  Never compiled.

fn bad_narrowing(width: u64) -> usize {
    width as usize // FINDING: truncating-cast
}

fn bad_u32(offset: u64) -> u32 {
    (offset % 64) as u32 // FINDING: truncating-cast (the bound is not stated)
}

pub fn fine_widening(word: u32) -> u64 {
    word as u64 // clean: widening never truncates (and the one `pub` item the report counts)
}

fn waived(width: u64) -> usize {
    // stat-analyzer: allow(truncating-cast) — capped at 64 words by the caller's assert
    width as usize
}

use core::mem as fine_alias; // clean: `as` in a use rename is not a cast
