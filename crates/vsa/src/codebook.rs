//! Codebooks (item memories) and cleanup.
//!
//! NVSA's frontend maintains a codebook of quasi-orthogonal hypervectors
//! large enough "to contain all object combinations and ensure
//! quasi-orthogonality" — the paper measures it at >90% of NVSA's memory
//! footprint (Takeaway 4). Construction registers that footprint with the
//! active profiler under the label `"<name>.codebook"`.

use crate::error::VsaError;
use crate::hv::{Hypervector, VsaModel};
use nsai_core::profile;

/// An ordered symbol → hypervector item memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    name: String,
    model: VsaModel,
    dim: usize,
    symbols: Vec<String>,
    vectors: Vec<Hypervector>,
}

impl Codebook {
    /// Generate a codebook of fresh quasi-orthogonal vectors for the given
    /// symbols. The storage footprint is registered with the active
    /// profiler.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is invalid for the model (see
    /// [`Hypervector::random`]).
    pub fn generate(
        name: impl Into<String>,
        model: VsaModel,
        dim: usize,
        symbols: &[&str],
        seed: u64,
    ) -> Self {
        let name = name.into();
        let vectors: Vec<Hypervector> = symbols
            .iter()
            .enumerate()
            .map(|(i, _)| Hypervector::random(model, dim, seed.wrapping_add(i as u64)))
            .collect();
        profile::register_storage(
            &format!("{name}.codebook"),
            (symbols.len() * dim * 4) as u64,
        );
        Codebook {
            name,
            model,
            dim,
            symbols: symbols.iter().map(|s| s.to_string()).collect(),
            vectors,
        }
    }

    /// Build a **fractional-power** codebook: entry `i` is `base^⊛i`, the
    /// `i`-fold binding power of a unitary HRR base vector. With this
    /// encoding, binding two encoded values adds them
    /// (`enc(a) ⊛ enc(b) = enc(a+b)`) — the algebra NVSA's arithmetic rule
    /// detection runs on.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::InvalidArgument`] if `base` is not an HRR
    /// vector, or propagates binding errors.
    pub fn fractional_power(
        name: impl Into<String>,
        base: &Hypervector,
        len: usize,
        symbols: &[&str],
    ) -> Result<Self, VsaError> {
        if base.model() != VsaModel::Hrr {
            return Err(VsaError::InvalidArgument(
                "fractional-power codebooks require an HRR base".into(),
            ));
        }
        if symbols.len() != len {
            return Err(VsaError::InvalidArgument(format!(
                "need {len} symbols, got {}",
                symbols.len()
            )));
        }
        let name = name.into();
        let mut vectors = Vec::with_capacity(len);
        let mut current = Hypervector::identity(VsaModel::Hrr, base.dim());
        for _ in 0..len {
            vectors.push(current.clone());
            current = current.bind(base)?;
        }
        profile::register_storage(&format!("{name}.codebook"), (len * base.dim() * 4) as u64);
        Ok(Codebook {
            name,
            model: VsaModel::Hrr,
            dim: base.dim(),
            symbols: symbols.iter().map(|s| s.to_string()).collect(),
            vectors,
        })
    }

    /// Build a **level** (thermometer) codebook for a discretized
    /// continuous attribute: entry 0 and entry `len−1` are independent
    /// random vectors, and intermediate entries interpolate between them,
    /// so *neighboring levels are similar* while distant levels are
    /// quasi-orthogonal — the standard encoding for magnitudes in
    /// hyperdimensional computing.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::InvalidArgument`] for fewer than two levels or
    /// a symbol-count mismatch.
    pub fn level(
        name: impl Into<String>,
        model: VsaModel,
        dim: usize,
        symbols: &[&str],
        seed: u64,
    ) -> Result<Self, VsaError> {
        let len = symbols.len();
        if len < 2 {
            return Err(VsaError::InvalidArgument(
                "level codebooks need at least two levels".into(),
            ));
        }
        if model != VsaModel::Bipolar {
            return Err(VsaError::InvalidArgument(
                "level codebooks are implemented for the bipolar model".into(),
            ));
        }
        let name = name.into();
        let low = Hypervector::random(model, dim, seed);
        let high = Hypervector::random(model, dim, seed.wrapping_add(1));
        // Deterministic per-position flip thresholds in (0, 1): position
        // j flips from `low` to `high` once the level fraction passes
        // threshold_j, so the flip count grows linearly with the level.
        let thresholds =
            nsai_tensor::Tensor::rand_uniform(&[dim], f32::EPSILON, 1.0, seed.wrapping_add(2));
        let mut vectors = Vec::with_capacity(len);
        for lvl in 0..len {
            let frac = lvl as f32 / (len - 1) as f32;
            let data: Vec<f32> = (0..dim)
                .map(|j| {
                    let t = thresholds.data()[j];
                    if frac >= t {
                        high.as_tensor().data()[j]
                    } else {
                        low.as_tensor().data()[j]
                    }
                })
                .collect();
            let tensor = nsai_tensor::Tensor::from_vec(data, &[dim])
                .expect("constructed with matching length");
            vectors.push(Hypervector::from_tensor(model, tensor)?);
        }
        profile::register_storage(&format!("{name}.codebook"), (len * dim * 4) as u64);
        Ok(Codebook {
            name,
            model,
            dim,
            symbols: symbols.iter().map(|s| s.to_string()).collect(),
            vectors,
        })
    }

    /// Codebook name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the codebook has no entries.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// VSA model of the entries.
    pub fn model(&self) -> VsaModel {
        self.model
    }

    /// Symbols in index order.
    pub fn symbols(&self) -> &[String] {
        &self.symbols
    }

    /// Storage footprint in bytes.
    pub fn bytes(&self) -> u64 {
        (self.len() * self.dim * 4) as u64
    }

    /// Look up a symbol's hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::UnknownSymbol`] when absent.
    pub fn get(&self, symbol: &str) -> Result<&Hypervector, VsaError> {
        self.symbols
            .iter()
            .position(|s| s == symbol)
            .map(|i| &self.vectors[i])
            .ok_or_else(|| VsaError::UnknownSymbol(symbol.to_owned()))
    }

    /// Hypervector at a given index.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::InvalidArgument`] when out of range.
    pub fn at(&self, index: usize) -> Result<&Hypervector, VsaError> {
        self.vectors.get(index).ok_or_else(|| {
            VsaError::InvalidArgument(format!("codebook index {index} out of range"))
        })
    }

    /// Encode a probability mass function over this codebook's symbols into
    /// a single hypervector (the **PMF→VSA transform** of NVSA): the
    /// weighted superposition `Σ pᵢ·cᵢ`, skipping zero-mass entries.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::InvalidArgument`] when `pmf.len() != len()`.
    pub fn encode_pmf(&self, pmf: &[f32]) -> Result<Hypervector, VsaError> {
        if pmf.len() != self.len() {
            return Err(VsaError::InvalidArgument(format!(
                "PMF length {} does not match codebook size {}",
                pmf.len(),
                self.len()
            )));
        }
        if self.is_empty() {
            return Err(VsaError::EmptyCodebook);
        }
        let refs: Vec<&Hypervector> = self.vectors.iter().collect();
        Hypervector::weighted_superpose(&refs, pmf)
    }

    /// Read a hypervector back out as similarities against each codebook
    /// entry (the raw **VSA→PMF transform**; negative similarities clamp to
    /// zero and the result is normalized to unit mass).
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::EmptyCodebook`] or compatibility errors.
    pub fn decode_pmf(&self, hv: &Hypervector) -> Result<Vec<f32>, VsaError> {
        if self.is_empty() {
            return Err(VsaError::EmptyCodebook);
        }
        let mut sims = Vec::with_capacity(self.len());
        for v in &self.vectors {
            sims.push(hv.similarity(v)?.max(0.0));
        }
        let total: f32 = sims.iter().sum();
        if total > 0.0 {
            for s in &mut sims {
                *s /= total;
            }
        } else {
            let u = 1.0 / sims.len() as f32;
            sims.iter_mut().for_each(|s| *s = u);
        }
        Ok(sims)
    }

    /// Cleanup memory: the index and similarity of the entry most similar
    /// to `hv` (a linear scan — the baseline the perf suite's
    /// `ablate/cleanup/*` entries compare against).
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::EmptyCodebook`] or compatibility errors.
    pub fn cleanup(&self, hv: &Hypervector) -> Result<(usize, f32), VsaError> {
        if self.is_empty() {
            return Err(VsaError::EmptyCodebook);
        }
        let mut best = (0usize, f32::NEG_INFINITY);
        for (i, v) in self.vectors.iter().enumerate() {
            let sim = hv.similarity(v)?;
            if sim > best.1 {
                best = (i, sim);
            }
        }
        Ok(best)
    }

    /// Batch cleanup: [`Codebook::cleanup`] for every query, with the
    /// queries dispatched in parallel on the execution engine
    /// (`nsai_tensor::par`). Each query runs the serial linear scan
    /// unchanged, so results are identical to calling `cleanup` in a
    /// loop at every pool width; similarity events recorded on pool
    /// workers reach the caller's active profiler via scope propagation.
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::EmptyCodebook`] or compatibility errors (all
    /// queries are validated up front).
    pub fn cleanup_batch(&self, queries: &[Hypervector]) -> Result<Vec<(usize, f32)>, VsaError> {
        if self.is_empty() {
            return Err(VsaError::EmptyCodebook);
        }
        for hv in queries {
            if hv.model() != self.model {
                return Err(VsaError::ModelMismatch {
                    lhs: hv.model().name(),
                    rhs: self.model.name(),
                });
            }
            if hv.dim() != self.dim {
                return Err(VsaError::DimensionMismatch {
                    lhs: hv.dim(),
                    rhs: self.dim,
                });
            }
        }
        Ok(nsai_tensor::par::map_chunks(queries.len(), 1, |r| {
            let hv = &queries[r.start];
            let mut best = (0usize, f32::NEG_INFINITY);
            for (i, v) in self.vectors.iter().enumerate() {
                let sim = hv.similarity(v).expect("queries validated above");
                if sim > best.1 {
                    best = (i, sim);
                }
            }
            best
        }))
    }

    /// Cleanup with an early-exit threshold: stop scanning once a
    /// similarity of at least `threshold` is found. Trades worst-case
    /// latency for best-case latency (the perf suite's
    /// `ablate/cleanup/early_exit` entry).
    ///
    /// # Errors
    ///
    /// Returns [`VsaError::EmptyCodebook`] or compatibility errors.
    pub fn cleanup_early_exit(
        &self,
        hv: &Hypervector,
        threshold: f32,
    ) -> Result<(usize, f32), VsaError> {
        if self.is_empty() {
            return Err(VsaError::EmptyCodebook);
        }
        let mut best = (0usize, f32::NEG_INFINITY);
        for (i, v) in self.vectors.iter().enumerate() {
            let sim = hv.similarity(v)?;
            if sim > best.1 {
                best = (i, sim);
            }
            if sim >= threshold {
                return Ok((i, sim));
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsai_core::Profiler;

    fn book() -> Codebook {
        Codebook::generate(
            "test",
            VsaModel::Bipolar,
            2048,
            &["red", "green", "blue", "yellow"],
            42,
        )
    }

    #[test]
    fn lookup_by_symbol_and_index() {
        let cb = book();
        assert_eq!(cb.len(), 4);
        assert!(!cb.is_empty());
        let red = cb.get("red").unwrap();
        assert_eq!(red.dim(), 2048);
        assert_eq!(cb.at(0).unwrap(), red);
        assert!(matches!(cb.get("purple"), Err(VsaError::UnknownSymbol(_))));
        assert!(cb.at(10).is_err());
    }

    #[test]
    fn entries_are_quasi_orthogonal() {
        let cb = book();
        for i in 0..cb.len() {
            for j in (i + 1)..cb.len() {
                let sim = cb.at(i).unwrap().similarity(cb.at(j).unwrap()).unwrap();
                assert!(sim.abs() < 0.1, "entries {i},{j}: {sim}");
            }
        }
    }

    #[test]
    fn pmf_round_trip_recovers_dominant_symbol() {
        let cb = book();
        let pmf = [0.7, 0.1, 0.1, 0.1];
        let hv = cb.encode_pmf(&pmf).unwrap();
        let decoded = cb.decode_pmf(&hv).unwrap();
        let argmax = decoded
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 0);
        assert!((decoded.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn one_hot_pmf_encodes_the_exact_entry() {
        let cb = book();
        let hv = cb.encode_pmf(&[0.0, 1.0, 0.0, 0.0]).unwrap();
        let (idx, sim) = cb.cleanup(&hv).unwrap();
        assert_eq!(idx, 1);
        assert!(sim > 0.99);
    }

    #[test]
    fn pmf_validation() {
        let cb = book();
        assert!(cb.encode_pmf(&[0.5, 0.5]).is_err());
    }

    #[test]
    fn cleanup_finds_noisy_entry() {
        let cb = book();
        // Bundle "blue" with an unrelated vector: cleanup still finds blue.
        let noise = Hypervector::random(VsaModel::Bipolar, 2048, 7777);
        let noisy = Hypervector::bundle(&[cb.get("blue").unwrap(), &noise]).unwrap();
        let (idx, _) = cb.cleanup(&noisy).unwrap();
        assert_eq!(cb.symbols()[idx], "blue");
    }

    #[test]
    fn early_exit_matches_full_scan_on_clean_input() {
        let cb = book();
        let hv = cb.get("green").unwrap().clone();
        let full = cb.cleanup(&hv).unwrap();
        let early = cb.cleanup_early_exit(&hv, 0.9).unwrap();
        assert_eq!(full.0, early.0);
    }

    #[test]
    fn decode_of_orthogonal_vector_is_uniformish() {
        let cb = book();
        let stranger = Hypervector::random(VsaModel::Bipolar, 2048, 123_456);
        let pmf = cb.decode_pmf(&stranger).unwrap();
        assert!((pmf.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn storage_footprint_registered() {
        let p = Profiler::new();
        {
            let _a = p.activate();
            let _cb = Codebook::generate("nvsa", VsaModel::Bipolar, 1024, &["a", "b"], 1);
        }
        let mem = p.memory();
        assert_eq!(mem.storage_bytes_total(), 2 * 1024 * 4);
        assert_eq!(mem.storage()[0].label, "nvsa.codebook");
    }

    #[test]
    fn bytes_matches_entries() {
        let cb = book();
        assert_eq!(cb.bytes(), 4 * 2048 * 4);
    }

    #[test]
    fn level_codebook_orders_similarity_by_distance() {
        let syms = ["0", "1", "2", "3", "4", "5", "6", "7"];
        let cb = Codebook::level("magnitude", VsaModel::Bipolar, 4096, &syms, 7).unwrap();
        let first = cb.at(0).unwrap();
        // Similarity to level 0 decreases monotonically-ish with distance.
        let sims: Vec<f32> = (0..8)
            .map(|i| first.similarity(cb.at(i).unwrap()).unwrap())
            .collect();
        assert!((sims[0] - 1.0).abs() < 1e-5);
        assert!(sims[1] > sims[4], "{sims:?}");
        assert!(sims[4] > sims[7] - 0.05, "{sims:?}");
        // Endpoints quasi-orthogonal.
        assert!(sims[7].abs() < 0.15, "{sims:?}");
        // Adjacent levels are close.
        let adjacent = cb.at(3).unwrap().similarity(cb.at(4).unwrap()).unwrap();
        assert!(adjacent > 0.6, "adjacent {adjacent}");
    }

    #[test]
    fn level_codebook_validation() {
        assert!(Codebook::level("x", VsaModel::Bipolar, 64, &["only"], 1).is_err());
        assert!(Codebook::level("x", VsaModel::Hrr, 64, &["a", "b"], 1).is_err());
    }

    #[test]
    fn fractional_power_codebook_adds_under_binding() {
        let base = Hypervector::random_unitary(1024, 9);
        let syms: Vec<String> = (0..6).map(|i| i.to_string()).collect();
        let sym_refs: Vec<&str> = syms.iter().map(String::as_str).collect();
        let cb = Codebook::fractional_power("value", &base, 6, &sym_refs).unwrap();
        // enc(2) ⊛ enc(3) ≈ enc(5).
        let bound = cb.at(2).unwrap().bind(cb.at(3).unwrap()).unwrap();
        let (idx, sim) = cb.cleanup(&bound).unwrap();
        assert_eq!(idx, 5);
        assert!(sim > 0.9);
    }

    #[test]
    fn fractional_power_validates_inputs() {
        let bipolar = Hypervector::random(VsaModel::Bipolar, 64, 1);
        assert!(Codebook::fractional_power("x", &bipolar, 2, &["a", "b"]).is_err());
        let base = Hypervector::random_unitary(64, 2);
        assert!(Codebook::fractional_power("x", &base, 2, &["a"]).is_err());
    }

    #[test]
    fn cleanup_batch_matches_sequential_cleanup() {
        let cb = book();
        let queries: Vec<Hypervector> = (0..6)
            .map(|i| {
                let noise = Hypervector::random(VsaModel::Bipolar, 2048, 9000 + i);
                Hypervector::bundle(&[cb.at(i as usize % cb.len()).unwrap(), &noise]).unwrap()
            })
            .collect();
        for threads in [1usize, 4] {
            let batch =
                nsai_tensor::par::with_threads(threads, || cb.cleanup_batch(&queries)).unwrap();
            for (q, got) in queries.iter().zip(&batch) {
                assert_eq!(*got, cb.cleanup(q).unwrap(), "threads={threads}");
            }
        }
    }

    #[test]
    fn cleanup_batch_profiles_identically_across_pool_widths() {
        let cb = book();
        let queries: Vec<Hypervector> = (0..4)
            .map(|i| cb.at(i % cb.len()).unwrap().clone())
            .collect();
        let count_events = |threads: usize| {
            let p = Profiler::new();
            {
                let _a = p.activate();
                nsai_tensor::par::with_threads(threads, || cb.cleanup_batch(&queries)).unwrap();
            }
            p.events().len()
        };
        let serial = count_events(1);
        assert!(serial > 0, "similarity ops should be profiled");
        assert_eq!(serial, count_events(4));
    }

    #[test]
    fn cleanup_batch_validates_inputs() {
        let cb = book();
        let wrong_dim = Hypervector::random(VsaModel::Bipolar, 1024, 1);
        assert!(matches!(
            cb.cleanup_batch(&[wrong_dim]),
            Err(VsaError::DimensionMismatch { .. })
        ));
        let empty = Codebook::generate("e", VsaModel::Bipolar, 64, &[], 1);
        assert!(matches!(
            empty.cleanup_batch(&[]),
            Err(VsaError::EmptyCodebook)
        ));
    }

    #[test]
    fn fractional_power_pmf_encoding_shifts_under_binding() {
        // encode_pmf is linear, so binding with enc(1) shifts the PMF by 1.
        let base = Hypervector::random_unitary(1024, 10);
        let syms: Vec<String> = (0..8).map(|i| i.to_string()).collect();
        let sym_refs: Vec<&str> = syms.iter().map(String::as_str).collect();
        let cb = Codebook::fractional_power("value", &base, 8, &sym_refs).unwrap();
        let pmf = [0.0, 0.8, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0];
        let x = cb.encode_pmf(&pmf).unwrap();
        let shifted = x.bind(cb.at(1).unwrap()).unwrap();
        let decoded = cb.decode_pmf(&shifted).unwrap();
        let argmax = decoded
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 2);
    }
}
