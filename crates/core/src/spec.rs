//! Declarative filter specifications.
//!
//! Experiments enumerate many filter configurations per run; [`FilterSpec`]
//! names a configuration as data so the harness can build one instance per
//! SMP node and label result rows with the paper's naming scheme.

use std::fmt;

use crate::addr::AddrSpace;
use crate::exclude::{ExcludeConfig, ExcludeJetty};
use crate::filter::SnoopFilter;
use crate::hybrid::{EjAllocation, ExcludePart, HybridConfig, HybridJetty};
use crate::include::{IncludeConfig, IncludeJetty};
use crate::null::NullFilter;
use crate::vector_exclude::{VectorExcludeConfig, VectorExcludeJetty};

/// A buildable description of a JETTY configuration.
///
/// # Examples
///
/// ```
/// use jetty_core::{AddrSpace, FilterSpec, SnoopFilter};
///
/// let spec = FilterSpec::hybrid_scalar(10, 4, 7, 32, 4);
/// assert_eq!(spec.label(), "(IJ-10x4x7, EJ-32x4)");
/// let filter = spec.build(AddrSpace::default());
/// assert_eq!(filter.name(), spec.label());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterSpec {
    /// No filtering (baseline).
    Null,
    /// An [`ExcludeJetty`].
    Exclude(ExcludeConfig),
    /// A [`VectorExcludeJetty`].
    VectorExclude(VectorExcludeConfig),
    /// An [`IncludeJetty`].
    Include(IncludeConfig),
    /// A [`HybridJetty`].
    Hybrid(HybridConfig),
}

impl FilterSpec {
    /// Shorthand for an `EJ-SxA` spec.
    pub fn exclude(sets: usize, ways: usize) -> Self {
        FilterSpec::Exclude(ExcludeConfig::new(sets, ways))
    }

    /// Shorthand for a `VEJ-SxA-V` spec.
    pub fn vector_exclude(sets: usize, ways: usize, vector_len: usize) -> Self {
        FilterSpec::VectorExclude(VectorExcludeConfig::new(sets, ways, vector_len))
    }

    /// Shorthand for an `IJ-ExNxS` spec.
    pub fn include(index_bits: u32, sub_arrays: u32, skip: u32) -> Self {
        FilterSpec::Include(IncludeConfig::new(index_bits, sub_arrays, skip))
    }

    /// Shorthand for an `(IJ-ExNxS, EJ-SxA)` hybrid spec.
    pub fn hybrid_scalar(e: u32, n: u32, s: u32, sets: usize, ways: usize) -> Self {
        FilterSpec::Hybrid(HybridConfig::new(
            IncludeConfig::new(e, n, s),
            ExcludeConfig::new(sets, ways),
        ))
    }

    /// Shorthand for an `(IJ-ExNxS, VEJ-SxA-V)` hybrid spec.
    pub fn hybrid_vector(e: u32, n: u32, s: u32, sets: usize, ways: usize, v: usize) -> Self {
        FilterSpec::Hybrid(HybridConfig::new(
            IncludeConfig::new(e, n, s),
            VectorExcludeConfig::new(sets, ways, v),
        ))
    }

    /// Shorthand for the eager-EJ-allocation ablation variant of
    /// [`FilterSpec::hybrid_scalar`].
    pub fn hybrid_scalar_eager(e: u32, n: u32, s: u32, sets: usize, ways: usize) -> Self {
        FilterSpec::Hybrid(
            HybridConfig::new(IncludeConfig::new(e, n, s), ExcludeConfig::new(sets, ways))
                .with_eager_allocation(),
        )
    }

    /// Builds a fresh filter instance for one SMP node.
    ///
    /// The returned box is [`Send`] ([`SnoopFilter`] requires it), so it
    /// can be handed to a worker thread. Simulations build whole per-node
    /// banks instead ([`FilterBank`](crate::FilterBank)), which dispatch
    /// statically and share IJ state between configurations.
    pub fn build(&self, space: AddrSpace) -> Box<dyn SnoopFilter> {
        match *self {
            FilterSpec::Null => Box::new(NullFilter::new()),
            FilterSpec::Exclude(c) => Box::new(ExcludeJetty::new(c, space)),
            FilterSpec::VectorExclude(c) => Box::new(VectorExcludeJetty::new(c, space)),
            FilterSpec::Include(c) => Box::new(IncludeJetty::new(c, space)),
            FilterSpec::Hybrid(c) => Box::new(HybridJetty::new(c, space)),
        }
    }

    /// Stable machine-readable identifier: lowercase, and free of the
    /// spaces, commas and parentheses the paper-style [`FilterSpec::label`]
    /// uses — safe as a CSV cell, a JSON key, a file name, or a CLI axis
    /// value. Round-trips through [`FilterSpec::from_id`].
    ///
    /// # Examples
    ///
    /// ```
    /// use jetty_core::FilterSpec;
    ///
    /// let spec = FilterSpec::hybrid_scalar(10, 4, 7, 32, 4);
    /// assert_eq!(spec.id(), "hj-ij10x4x7-ej32x4");
    /// assert_eq!(FilterSpec::from_id(&spec.id()), Some(spec));
    /// ```
    pub fn id(&self) -> String {
        match self {
            FilterSpec::Null => "none".to_owned(),
            FilterSpec::Exclude(c) => format!("ej-{}x{}", c.sets, c.ways),
            FilterSpec::VectorExclude(c) => {
                format!("vej-{}x{}-{}", c.sets, c.ways, c.vector_len)
            }
            FilterSpec::Include(c) => {
                format!("ij-{}x{}x{}", c.index_bits, c.sub_arrays, c.skip)
            }
            FilterSpec::Hybrid(c) => {
                let ij = &c.include;
                let ej = match &c.exclude {
                    ExcludePart::Scalar(x) => format!("ej{}x{}", x.sets, x.ways),
                    ExcludePart::Vector(x) => format!("vej{}x{}-{}", x.sets, x.ways, x.vector_len),
                };
                let eager = match c.ej_allocation {
                    EjAllocation::Backup => "",
                    EjAllocation::Eager => "-eager",
                };
                format!("hj-ij{}x{}x{}-{}{}", ij.index_bits, ij.sub_arrays, ij.skip, ej, eager)
            }
        }
    }

    /// Parses a stable identifier produced by [`FilterSpec::id`]
    /// (case-insensitive, surrounding whitespace ignored). Returns `None`
    /// for unknown shapes *and* for invalid geometries (non-power-of-two
    /// set counts, zero ways, out-of-range IJ widths), so CLI surfaces can
    /// report errors instead of panicking in a config constructor.
    pub fn from_id(id: &str) -> Option<Self> {
        let id = id.trim().to_ascii_lowercase();
        if id == "none" {
            return Some(FilterSpec::Null);
        }
        if let Some(rest) = id.strip_prefix("hj-") {
            let (rest, eager) = match rest.strip_suffix("-eager") {
                Some(r) => (r, true),
                None => (rest, false),
            };
            let rest = rest.strip_prefix("ij")?;
            // The IJ dims contain no dashes, so the first `-ej` / `-vej`
            // cleanly separates the two components.
            let (ij_part, ej_part, vector) = if let Some(i) = rest.find("-vej") {
                (&rest[..i], &rest[i + 4..], true)
            } else if let Some(i) = rest.find("-ej") {
                (&rest[..i], &rest[i + 3..], false)
            } else {
                return None;
            };
            let (e, n, s) = parse_ij_dims(ij_part)?;
            let include = IncludeConfig::new(e, n, s);
            let config = if vector {
                let (sets, ways, v) = parse_vej_dims(ej_part)?;
                HybridConfig::new(include, VectorExcludeConfig::new(sets, ways, v))
            } else {
                let (sets, ways) = parse_ej_dims(ej_part)?;
                HybridConfig::new(include, ExcludeConfig::new(sets, ways))
            };
            let config = if eager { config.with_eager_allocation() } else { config };
            return Some(FilterSpec::Hybrid(config));
        }
        if let Some(rest) = id.strip_prefix("vej-") {
            let (sets, ways, v) = parse_vej_dims(rest)?;
            return Some(Self::vector_exclude(sets, ways, v));
        }
        if let Some(rest) = id.strip_prefix("ej-") {
            let (sets, ways) = parse_ej_dims(rest)?;
            return Some(Self::exclude(sets, ways));
        }
        if let Some(rest) = id.strip_prefix("ij-") {
            let (e, n, s) = parse_ij_dims(rest)?;
            return Some(Self::include(e, n, s));
        }
        None
    }

    /// Paper-style label for result rows.
    pub fn label(&self) -> String {
        match self {
            FilterSpec::Null => "none".to_owned(),
            FilterSpec::Exclude(c) => c.label(),
            FilterSpec::VectorExclude(c) => c.label(),
            FilterSpec::Include(c) => c.label(),
            FilterSpec::Hybrid(c) => c.label(),
        }
    }

    /// The six EJ configurations of Figure 4(a).
    pub fn figure4a_set() -> Vec<FilterSpec> {
        vec![
            Self::exclude(32, 4),
            Self::exclude(32, 2),
            Self::exclude(16, 4),
            Self::exclude(16, 2),
            Self::exclude(8, 4),
            Self::exclude(8, 2),
        ]
    }

    /// The four VEJ configurations of Figure 4(b) (the figure also repeats
    /// EJ-32x4 and EJ-16x4 for comparison; include those via
    /// [`FilterSpec::figure4a_set`]).
    pub fn figure4b_set() -> Vec<FilterSpec> {
        vec![
            Self::vector_exclude(32, 4, 8),
            Self::vector_exclude(32, 4, 4),
            Self::vector_exclude(16, 4, 8),
            Self::vector_exclude(16, 4, 4),
        ]
    }

    /// The five IJ configurations of Figure 5(a).
    pub fn figure5a_set() -> Vec<FilterSpec> {
        vec![
            Self::include(10, 4, 7),
            Self::include(9, 4, 7),
            Self::include(8, 4, 7),
            Self::include(7, 5, 6),
            Self::include(6, 5, 6),
        ]
    }

    /// The six HJ configurations of Figure 5(b) / Figure 6(a):
    /// (Ia..Ic, Ea..Eb) with Ia=IJ-10x4x7, Ib=IJ-9x4x7, Ic=IJ-8x4x7,
    /// Ea=EJ-32x4, Eb=EJ-16x2.
    pub fn figure5b_set() -> Vec<FilterSpec> {
        let mut specs = Vec::new();
        for ej in [(32usize, 4usize), (16, 2)] {
            for ij in [(10u32, 4u32, 7u32), (9, 4, 7), (8, 4, 7)] {
                specs.push(Self::hybrid_scalar(ij.0, ij.1, ij.2, ej.0, ej.1));
            }
        }
        specs
    }

    /// Every configuration evaluated anywhere in the paper, deduplicated —
    /// the full bank attached to each node in a reproduction run.
    pub fn paper_bank() -> Vec<FilterSpec> {
        let mut bank = Vec::new();
        bank.extend(Self::figure4a_set());
        bank.extend(Self::figure4b_set());
        bank.extend(Self::figure5a_set());
        bank.extend(Self::figure5b_set());
        // §4.3.4 also mentions (IJ-10x4x7, VEJ-32x4-8) reaching 77%.
        bank.push(Self::hybrid_vector(10, 4, 7, 32, 4, 8));
        bank
    }
}

/// Parses `SETSxWAYS`, validating what [`ExcludeConfig::new`] asserts.
fn parse_ej_dims(s: &str) -> Option<(usize, usize)> {
    let (sets, ways) = s.split_once('x')?;
    let (sets, ways) = (sets.parse().ok()?, ways.parse().ok()?);
    (usize::is_power_of_two(sets) && ways > 0).then_some((sets, ways))
}

/// Parses `SETSxWAYS-VLEN`, validating what [`VectorExcludeConfig::new`]
/// asserts.
fn parse_vej_dims(s: &str) -> Option<(usize, usize, usize)> {
    let (dims, vlen) = s.split_once('-')?;
    let (sets, ways) = parse_ej_dims(dims)?;
    let vlen: usize = vlen.parse().ok()?;
    (vlen.is_power_of_two() && vlen >= 2).then_some((sets, ways, vlen))
}

/// Parses `ExNxS`, validating what [`IncludeConfig::new`] asserts.
fn parse_ij_dims(s: &str) -> Option<(u32, u32, u32)> {
    let mut it = s.split('x');
    let (e, n, s) = (it.next()?.parse().ok()?, it.next()?.parse().ok()?, it.next()?.parse().ok()?);
    (it.next().is_none() && (1..=30).contains(&e) && n > 0 && s > 0).then_some((e, n, s))
}

impl fmt::Display for FilterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::UnitAddr;
    use crate::filter::Verdict;

    #[test]
    fn labels_match_paper_naming() {
        assert_eq!(FilterSpec::Null.label(), "none");
        assert_eq!(FilterSpec::exclude(32, 4).label(), "EJ-32x4");
        assert_eq!(FilterSpec::vector_exclude(16, 4, 8).label(), "VEJ-16x4-8");
        assert_eq!(FilterSpec::include(7, 5, 6).label(), "IJ-7x5x6");
        assert_eq!(
            FilterSpec::hybrid_vector(10, 4, 7, 32, 4, 8).label(),
            "(IJ-10x4x7, VEJ-32x4-8)"
        );
    }

    #[test]
    fn figure_sets_have_paper_cardinalities() {
        assert_eq!(FilterSpec::figure4a_set().len(), 6);
        assert_eq!(FilterSpec::figure4b_set().len(), 4);
        assert_eq!(FilterSpec::figure5a_set().len(), 5);
        assert_eq!(FilterSpec::figure5b_set().len(), 6);
        assert_eq!(FilterSpec::paper_bank().len(), 6 + 4 + 5 + 6 + 1);
    }

    #[test]
    fn build_produces_working_filters() {
        let space = AddrSpace::default();
        for spec in FilterSpec::paper_bank() {
            let mut filter = spec.build(space);
            assert_eq!(filter.name(), spec.label());
            // Allocate then probe: must never filter a cached unit.
            let u = UnitAddr::new(0xABC);
            filter.on_allocate(u);
            assert_eq!(filter.probe(u), Verdict::MaybeCached, "{}", spec);
        }
    }

    #[test]
    fn built_filters_are_send() {
        fn assert_send<T: Send>(_: &T) {}
        for spec in FilterSpec::paper_bank() {
            assert_send(&spec.build(AddrSpace::default()));
        }
    }

    #[test]
    fn ids_are_machine_readable() {
        assert_eq!(FilterSpec::Null.id(), "none");
        assert_eq!(FilterSpec::exclude(32, 4).id(), "ej-32x4");
        assert_eq!(FilterSpec::vector_exclude(16, 4, 8).id(), "vej-16x4-8");
        assert_eq!(FilterSpec::include(7, 5, 6).id(), "ij-7x5x6");
        assert_eq!(FilterSpec::hybrid_scalar(10, 4, 7, 32, 4).id(), "hj-ij10x4x7-ej32x4");
        assert_eq!(FilterSpec::hybrid_vector(10, 4, 7, 32, 4, 8).id(), "hj-ij10x4x7-vej32x4-8");
        assert_eq!(FilterSpec::hybrid_scalar_eager(9, 4, 7, 32, 4).id(), "hj-ij9x4x7-ej32x4-eager");
        for spec in FilterSpec::paper_bank() {
            let id = spec.id();
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "{id:?} must stay lowercase alphanumeric + dashes"
            );
        }
    }

    #[test]
    fn ids_round_trip_through_from_id() {
        let mut bank = FilterSpec::paper_bank();
        bank.push(FilterSpec::Null);
        bank.push(FilterSpec::hybrid_scalar_eager(9, 4, 7, 32, 4));
        for spec in bank {
            assert_eq!(FilterSpec::from_id(&spec.id()), Some(spec), "{}", spec.id());
        }
        // Case and whitespace are forgiven.
        assert_eq!(FilterSpec::from_id(" EJ-32x4 "), Some(FilterSpec::exclude(32, 4)));
        assert_eq!(FilterSpec::from_id("NONE"), Some(FilterSpec::Null));
    }

    #[test]
    fn from_id_rejects_garbage_without_panicking() {
        for bad in [
            "",
            "ej-",
            "ej-32",
            "ej-31x4",
            "ej-32x0",
            "ej-axb",
            "vej-16x4",
            "vej-16x4-3",
            "ij-0x4x7",
            "ij-31x4x7",
            "ij-10x4",
            "ij-10x4x7x2",
            "hj-ej32x4",
            "hj-ij10x4x7",
            "hj-ij10x4x7-xx",
            "moesi",
            "ej_32x4",
        ] {
            assert_eq!(FilterSpec::from_id(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn display_matches_label() {
        let spec = FilterSpec::include(10, 4, 7);
        assert_eq!(spec.to_string(), spec.label());
    }

    #[test]
    fn figure5b_ordering_matches_figure_legend() {
        // (Ia,Ea) (Ib,Ea) (Ic,Ea) (Ia,Eb) (Ib,Eb) (Ic,Eb)
        let labels: Vec<String> =
            FilterSpec::figure5b_set().iter().map(FilterSpec::label).collect();
        assert_eq!(
            labels,
            vec![
                "(IJ-10x4x7, EJ-32x4)",
                "(IJ-9x4x7, EJ-32x4)",
                "(IJ-8x4x7, EJ-32x4)",
                "(IJ-10x4x7, EJ-16x2)",
                "(IJ-9x4x7, EJ-16x2)",
                "(IJ-8x4x7, EJ-16x2)",
            ]
        );
    }
}
