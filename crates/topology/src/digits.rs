use std::fmt;
use std::ops::{Index, IndexMut};

/// Maximum number of digits a label can have. `FT(m, n)` labels have at most
/// `n` digits and the LID-space bound in [`crate::TreeParams`] keeps `n`
/// well below this.
pub const MAX_DIGITS: usize = 16;

/// A fixed-capacity digit string used for node and switch labels.
///
/// Labels in the m-port n-tree are short (at most `n <= 16` digits), so this
/// avoids heap allocation entirely — labels are created in hot loops when
/// building forwarding tables for every (switch, LID) pair.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digits {
    buf: [u8; MAX_DIGITS],
    len: u8,
}

impl Digits {
    /// An empty digit string.
    #[inline]
    pub const fn new() -> Self {
        Digits {
            buf: [0; MAX_DIGITS],
            len: 0,
        }
    }

    /// A digit string of `len` zeros.
    ///
    /// # Panics
    /// Panics if `len > MAX_DIGITS`.
    #[inline]
    pub fn zeros(len: usize) -> Self {
        assert!(len <= MAX_DIGITS, "label too long: {len} digits");
        Digits {
            buf: [0; MAX_DIGITS],
            len: len as u8,
        }
    }

    /// Build from a slice of digits.
    ///
    /// # Panics
    /// Panics if `slice.len() > MAX_DIGITS`.
    #[inline]
    pub fn from_slice(slice: &[u8]) -> Self {
        assert!(slice.len() <= MAX_DIGITS, "label too long");
        let mut d = Digits::zeros(slice.len());
        d.buf[..slice.len()].copy_from_slice(slice);
        d
    }

    /// Number of digits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if there are no digits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The digits as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }

    /// Append a digit.
    ///
    /// # Panics
    /// Panics if the string is already at capacity.
    #[inline]
    pub fn push(&mut self, digit: u8) {
        assert!((self.len as usize) < MAX_DIGITS, "label overflow");
        self.buf[self.len as usize] = digit;
        self.len += 1;
    }

    /// Iterate over the digits by value.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.as_slice().iter().copied()
    }

    /// Length of the greatest common prefix with `other`.
    #[inline]
    pub fn common_prefix_len(&self, other: &Digits) -> usize {
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .take_while(|(a, b)| a == b)
            .count()
    }
}

impl Default for Digits {
    fn default() -> Self {
        Digits::new()
    }
}

impl Index<usize> for Digits {
    type Output = u8;
    #[inline]
    fn index(&self, i: usize) -> &u8 {
        &self.as_slice()[i]
    }
}

impl IndexMut<usize> for Digits {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut u8 {
        &mut self.buf[..self.len as usize][i]
    }
}

fn fmt_digits(d: &Digits, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    for digit in d.iter() {
        if digit < 10 {
            write!(f, "{digit}")?;
        } else {
            // Radices above 10 (m >= 32 trees) print digits in bracketed
            // decimal so labels stay unambiguous.
            write!(f, "[{digit}]")?;
        }
    }
    Ok(())
}

impl fmt::Debug for Digits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_digits(self, f)
    }
}

impl fmt::Display for Digits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_digits(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_index() {
        let mut d = Digits::new();
        d.push(1);
        d.push(0);
        d.push(3);
        assert_eq!(d.len(), 3);
        assert_eq!(d[0], 1);
        assert_eq!(d[2], 3);
        assert_eq!(d.as_slice(), &[1, 0, 3]);
    }

    #[test]
    fn common_prefix() {
        let a = Digits::from_slice(&[1, 0, 0]);
        let b = Digits::from_slice(&[1, 1, 1]);
        let c = Digits::from_slice(&[1, 0, 1]);
        assert_eq!(a.common_prefix_len(&b), 1);
        assert_eq!(a.common_prefix_len(&c), 2);
        assert_eq!(a.common_prefix_len(&a), 3);
        assert_eq!(Digits::new().common_prefix_len(&a), 0);
    }

    #[test]
    fn display_small_and_large_digits() {
        let d = Digits::from_slice(&[1, 0, 2]);
        assert_eq!(d.to_string(), "102");
        let d = Digits::from_slice(&[15, 3]);
        assert_eq!(d.to_string(), "[15]3");
    }

    #[test]
    #[should_panic(expected = "label overflow")]
    fn overflow_panics() {
        let mut d = Digits::zeros(MAX_DIGITS);
        d.push(0);
    }
}
