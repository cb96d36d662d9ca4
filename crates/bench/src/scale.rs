//! Benchmark scale control.

/// Workload sizes for the figure regenerators.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Benchmark A lattice edge (the paper uses 64 → 262,144 cells).
    pub a_cells_per_dim: usize,
    /// Benchmark A iterations (the paper uses 10).
    pub a_steps: u64,
    /// Benchmark B agent count (the paper uses 2,000,000).
    pub b_agents: usize,
    /// Benchmark B measured steps per density point.
    pub b_steps: u64,
    /// Benchmark-B agent count for the Fig. 12 roofline points (larger
    /// than `b_agents` so the working set exceeds the V100's 6 MB L2).
    pub roofline_agents: usize,
    /// ERT working-set elements.
    pub ert_elems: usize,
    /// Warp budget for detailed GPU tracing.
    pub trace_budget: u64,
}

impl Default for BenchScale {
    fn default() -> Self {
        Self::default_scale()
    }
}

impl BenchScale {
    /// Default scale: finishes in minutes. The modeled times do not
    /// depend on the host or its worker count.
    pub fn default_scale() -> Self {
        Self {
            a_cells_per_dim: 48,
            a_steps: 10,
            b_agents: 200_000,
            b_steps: 2,
            roofline_agents: 600_000,
            ert_elems: 1 << 22,
            trace_budget: 1024,
        }
    }

    /// The paper's full configuration.
    pub fn paper_scale() -> Self {
        Self {
            a_cells_per_dim: 64,
            a_steps: 10,
            b_agents: 2_000_000,
            b_steps: 2,
            roofline_agents: 2_000_000,
            ert_elems: 1 << 24,
            trace_budget: 4096,
        }
    }

    /// Tiny scale for smoke runs, the regression gate and tests.
    pub fn smoke() -> Self {
        Self {
            a_cells_per_dim: 8,
            a_steps: 3,
            b_agents: 5_000,
            b_steps: 1,
            roofline_agents: 60_000,
            ert_elems: 1 << 16,
            trace_budget: 1024,
        }
    }

    /// Look up a scale by name (`"smoke"` / `"default"` / `"paper"`).
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            "default" => Some(Self::default_scale()),
            "paper" => Some(Self::paper_scale()),
            _ => None,
        }
    }

    /// Name of this configuration (`"custom"` for hand-built scales) —
    /// recorded as context in the `BENCH_*.json` documents.
    pub fn label(&self) -> &'static str {
        let same = |o: &BenchScale| {
            self.a_cells_per_dim == o.a_cells_per_dim
                && self.a_steps == o.a_steps
                && self.b_agents == o.b_agents
        };
        if same(&Self::smoke()) {
            "smoke"
        } else if same(&Self::default_scale()) {
            "default"
        } else if same(&Self::paper_scale()) {
            "paper"
        } else {
            "custom"
        }
    }

    /// The scale `BDM_BENCH_SCALE` names: `smoke`, `default` or `paper`;
    /// unset means `default`. Anything else is an error naming the
    /// choices — a typo must not turn a smoke run into a default one.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        let name = value.unwrap_or("default");
        Self::named(name)
            .ok_or_else(|| format!("BDM_BENCH_SCALE={name:?}: expected smoke | default | paper"))
    }

    /// [`Self::parse`] over the process environment.
    pub fn from_env() -> Result<Self, String> {
        let value = std::env::var_os("BDM_BENCH_SCALE");
        Self::parse(value.as_deref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// Benchmark A population.
    pub fn a_cells(&self) -> usize {
        self.a_cells_per_dim.pow(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_paper() {
        let p = BenchScale::paper_scale();
        assert_eq!(p.a_cells(), 262_144);
        assert_eq!(p.b_agents, 2_000_000);
        assert_eq!(p.a_steps, 10);
    }

    #[test]
    fn default_is_smaller() {
        let d = BenchScale::default_scale();
        assert!(d.a_cells() < BenchScale::paper_scale().a_cells());
    }

    #[test]
    fn the_environment_value_is_validated() {
        assert_eq!(BenchScale::parse(None).unwrap().label(), "default");
        assert_eq!(BenchScale::parse(Some("smoke")).unwrap().label(), "smoke");
        assert_eq!(BenchScale::parse(Some("paper")).unwrap().label(), "paper");
        for typo in ["smok", "", "Smoke", "1"] {
            let err = BenchScale::parse(Some(typo)).unwrap_err();
            assert!(err.contains("smoke | default | paper"), "{err}");
        }
    }

    #[test]
    fn names_round_trip() {
        for name in ["smoke", "default", "paper"] {
            assert_eq!(BenchScale::named(name).unwrap().label(), name);
        }
        assert!(BenchScale::named("bogus").is_none());
        let mut custom = BenchScale::smoke();
        custom.a_cells_per_dim = 13;
        assert_eq!(custom.label(), "custom");
    }
}
