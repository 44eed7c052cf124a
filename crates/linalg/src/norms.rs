//! Vector norms and small numerical helpers.

/// Dot product of two slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// L1 norm (sum of absolute values).
pub fn l1_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// L2 (Euclidean) norm.
pub fn l2_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Component-wise `a - b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "subtraction length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// Returns `true` if all entries are finite.
pub fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|v| v.is_finite())
}

/// Returns `true` if `|a - b| <= tol` component-wise.
pub fn approx_eq(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| (x - y).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms() {
        let v = [3.0, -4.0];
        assert_eq!(l1_norm(&v), 7.0);
        assert!((l2_norm(&v) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn elementwise_ops() {
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn finiteness_and_approx() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::INFINITY]));
        assert!(approx_eq(&[1.0, 2.0], &[1.0 + 1e-12, 2.0], 1e-9));
        assert!(!approx_eq(&[1.0], &[1.0, 2.0], 1e-9));
    }
}
