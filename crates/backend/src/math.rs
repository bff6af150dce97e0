//! Minimal complex-number arithmetic for the statevector simulator.
//!
//! Implemented locally to stay within the allowed offline crate set (no
//! `num-complex`). Only the operations the simulator needs are provided.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Complex zero.
    pub(crate) const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// Complex one.
    pub(crate) const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub(crate) const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Construct from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// A purely real complex number.
    pub(crate) const fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// e^{iθ}.
    pub(crate) fn from_polar(theta: f64) -> Self {
        C64 { re: theta.cos(), im: theta.sin() }
    }

    /// Squared magnitude |z|².
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiply by a real scalar.
    pub fn scale(self, s: f64) -> Self {
        C64 { re: self.re * s, im: self.im * s }
    }
}

impl Add for C64 {
    type Output = C64;
    fn add(self, rhs: C64) -> C64 {
        C64 { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for C64 {
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for C64 {
    type Output = C64;
    fn sub(self, rhs: C64) -> C64 {
        C64 { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl Mul for C64 {
    type Output = C64;
    fn mul(self, rhs: C64) -> C64 {
        C64 { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl Neg for C64 {
    type Output = C64;
    fn neg(self) -> C64 {
        C64 { re: -self.re, im: -self.im }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = C64::new(3.0, -4.0);
        assert_eq!(z + C64::ZERO, z);
        assert_eq!(z * C64::ONE, z);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(-z, C64::new(-3.0, 4.0));
    }

    #[test]
    fn complex_multiplication() {
        // (1 + i)(1 - i) = 2
        let a = C64::new(1.0, 1.0);
        let b = C64::new(1.0, -1.0);
        assert_eq!(a * b, C64::real(2.0));
        // i * i = -1
        assert_eq!(C64::I * C64::I, C64::real(-1.0));
    }

    #[test]
    fn polar_form() {
        let z = C64::from_polar(std::f64::consts::FRAC_PI_2);
        assert!((z.re - 0.0).abs() < 1e-12);
        assert!((z.im - 1.0).abs() < 1e-12);
    }
}
