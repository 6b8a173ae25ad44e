//! F² configuration: the security threshold α and the split factor ϖ.

use crate::{F2Error, Result};

/// Configuration of an F² encryption run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F2Config {
    /// The α-security threshold (Definition 2.1): the adversary's success probability
    /// in the frequency analysis attack is bounded by α. Must lie in `(0, 1]`.
    pub alpha: f64,
    /// The split factor ϖ (Step 2.2): each split equivalence class is broken into up to
    /// ϖ ciphertext instances. ϖ = 1 disables splitting.
    pub split_factor: usize,
    /// Seed for the encryption RNG (nonce generation, fake-value shuffling). Two runs
    /// with the same seed, key and input produce identical ciphertext tables.
    pub seed: u64,
}

impl F2Config {
    /// Create a configuration with the given α and ϖ, validating ranges.
    pub fn new(alpha: f64, split_factor: usize) -> Result<Self> {
        let config = F2Config { alpha, split_factor, seed: 0x5eed };
        config.validate()?;
        Ok(config)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(F2Error::InvalidConfig(format!(
                "alpha must be in (0, 1], got {}",
                self.alpha
            )));
        }
        if self.split_factor == 0 {
            return Err(F2Error::InvalidConfig("split factor ϖ must be ≥ 1".into()));
        }
        Ok(())
    }

    /// The minimum ECG size `k = ⌈1/α⌉` (§3.2.1).
    pub fn ecg_size(&self) -> usize {
        (1.0 / self.alpha).ceil() as usize
    }
}

impl Default for F2Config {
    fn default() -> Self {
        F2Config { alpha: 0.2, split_factor: 2, seed: 0x5eed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_configs() {
        let c = F2Config::new(0.2, 2).unwrap();
        assert_eq!(c.ecg_size(), 5);
        assert_eq!(F2Config::new(1.0, 1).unwrap().ecg_size(), 1);
        assert_eq!(F2Config::new(0.33, 3).unwrap().ecg_size(), 4);
        assert_eq!(F2Config::new(0.1, 4).unwrap().ecg_size(), 10);
        assert_eq!(F2Config::default().ecg_size(), 5);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(F2Config::new(0.0, 2).is_err());
        assert!(F2Config::new(-0.5, 2).is_err());
        assert!(F2Config::new(1.5, 2).is_err());
        assert!(F2Config::new(0.2, 0).is_err());
    }
}
