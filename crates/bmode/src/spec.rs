//! Mode specifications: a named target configuration of the broadcast disk.

use bcore::GeneralizedFileSpec;
use ida::{FileId, ModeProfile, RedundancyPolicy};

/// A named operating mode: the file specifications to serve and an optional
/// [`ModeProfile`] adding per-file AIDA redundancy.  The channel budget is
/// the station's: every mode is planned by the [`crate::ModePlanner`] the
/// station was built with.
///
/// The profile is folded into the specifications by
/// [`ModeSpec::resolved_specs`]: each file's policy becomes a *floor* on the
/// dispersal width the designer chooses (via
/// [`GeneralizedFileSpec::with_min_dispersal`]), so a "combat" profile that
/// maximises the redundancy of the aircraft-track object widens that file's
/// dispersal without touching its latency vector or anyone else's schedule
/// guarantees.  The design-level reading of each [`RedundancyPolicy`]:
///
/// | policy | width floor |
/// |--------|-------------|
/// | `None` | none (the designer's own `mᵢ + rᵢ` minimum applies) |
/// | `TolerateFaults { faults }` | `mᵢ + faults` |
/// | `Maximum` | `2·mᵢ` (the paper's Section 2.3 example doubles every file) |
/// | `Fixed { count }` | `count` |
///
/// Floors only ever *add* redundancy: the designer never drops below its own
/// minimum, so a mode profile cannot invalidate a file's declared fault
/// tolerance.
#[derive(Debug, Clone)]
pub struct ModeSpec {
    name: String,
    specs: Vec<GeneralizedFileSpec>,
    profile: Option<ModeProfile>,
}

impl ModeSpec {
    /// Starts an empty mode named `name` (e.g. `"combat"`, `"rush-hour"`).
    pub fn new(name: impl Into<String>) -> Self {
        ModeSpec {
            name: name.into(),
            specs: Vec::new(),
            profile: None,
        }
    }

    /// Adds one file specification to the mode.
    pub fn file(mut self, spec: GeneralizedFileSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds many file specifications.
    pub fn files(mut self, specs: impl IntoIterator<Item = GeneralizedFileSpec>) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Attaches an AIDA redundancy profile (per-file policies resolved by
    /// [`ModeSpec::resolved_specs`]).
    pub fn with_profile(mut self, profile: ModeProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// The mode's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The raw (pre-profile) file specifications.
    pub fn specs(&self) -> &[GeneralizedFileSpec] {
        &self.specs
    }

    /// The dispersal-width floor this mode's profile demands for `file` of
    /// `size_blocks` blocks (0 when no profile or no extra redundancy).
    pub(crate) fn width_floor(&self, file: FileId, size_blocks: u32) -> u32 {
        let Some(profile) = &self.profile else {
            return 0;
        };
        let floor = match profile.policy_for(file) {
            RedundancyPolicy::None => 0,
            RedundancyPolicy::TolerateFaults { faults } => {
                size_blocks.saturating_add(faults as u32)
            }
            RedundancyPolicy::Maximum => size_blocks.saturating_mul(2),
            RedundancyPolicy::Fixed { count } => count as u32,
        };
        floor.min(255)
    }

    /// The specifications with the profile folded in: each file carries the
    /// mode's dispersal-width floor.  This is what the [`crate::ModePlanner`]
    /// designs from.
    pub fn resolved_specs(&self) -> Vec<GeneralizedFileSpec> {
        self.specs
            .iter()
            .map(|s| s.clone().with_min_dispersal(self.resolved_floor(s)))
            .collect()
    }

    /// Whether [`ModeSpec::resolved_specs`] equals `resolved`, without
    /// building it: a specification the profile leaves alone is compared in
    /// place.  A content refresh asks this of the specifications on the air.
    pub fn resolves_to(&self, resolved: &[GeneralizedFileSpec]) -> bool {
        self.specs.len() == resolved.len()
            && self.specs.iter().zip(resolved).all(|(s, r)| {
                let floor = self.resolved_floor(s);
                match floor == s.min_dispersal {
                    true => s == r,
                    false => s.clone().with_min_dispersal(floor) == *r,
                }
            })
    }

    /// The dispersal-width floor `s` resolves to: its own, or the profile's
    /// when that is higher.
    fn resolved_floor(&self, s: &GeneralizedFileSpec) -> u32 {
        self.width_floor(s.id, s.size_blocks).max(s.min_dispersal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u32, size: u32, latencies: &[u32]) -> GeneralizedFileSpec {
        GeneralizedFileSpec::new(FileId(id), size, latencies.to_vec()).unwrap()
    }

    #[test]
    fn profiles_resolve_into_width_floors() {
        let mode = ModeSpec::new("combat")
            .file(spec(1, 4, &[40, 44]))
            .file(spec(2, 2, &[30]))
            .file(spec(3, 3, &[60]))
            .file(spec(4, 2, &[50]))
            .with_profile(
                ida::ModeProfile::new("combat", RedundancyPolicy::None)
                    .with_override(FileId(1), RedundancyPolicy::Maximum)
                    .with_override(FileId(2), RedundancyPolicy::TolerateFaults { faults: 3 })
                    .with_override(FileId(3), RedundancyPolicy::Fixed { count: 7 }),
            );
        let resolved = mode.resolved_specs();
        assert_eq!(resolved[0].min_dispersal, 8); // 2·m
        assert_eq!(resolved[1].min_dispersal, 5); // m + faults
        assert_eq!(resolved[2].min_dispersal, 7); // fixed
        assert_eq!(resolved[3].min_dispersal, 0); // default: no floor
        assert!(mode.resolves_to(&resolved));
        assert!(!mode.resolves_to(mode.specs()), "the profile raises floors");
        assert!(!mode.resolves_to(&resolved[1..]));
    }

    #[test]
    fn an_explicit_spec_floor_survives_a_smaller_profile_floor() {
        let mode = ModeSpec::new("landing")
            .file(spec(1, 2, &[20]).with_min_dispersal(9))
            .with_profile(ida::ModeProfile::new(
                "landing",
                RedundancyPolicy::TolerateFaults { faults: 1 },
            ));
        assert_eq!(mode.resolved_specs()[0].min_dispersal, 9);
    }

    #[test]
    fn floors_are_clamped_to_the_field_maximum() {
        let mode = ModeSpec::new("wide")
            .file(spec(1, 200, &[2000]))
            .with_profile(ida::ModeProfile::new("wide", RedundancyPolicy::Maximum));
        assert_eq!(mode.width_floor(FileId(1), 200), 255);
    }

    #[test]
    fn builder_accessors_round_trip() {
        let mode = ModeSpec::new("m").files([spec(1, 1, &[8]), spec(2, 1, &[10])]);
        assert_eq!(mode.name(), "m");
        assert_eq!(mode.specs().len(), 2);
        assert!(mode.profile.is_none());
    }
}
