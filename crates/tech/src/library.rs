//! The named corner registry.

use crate::corner::{Corner, PowerParams, TechError, Vt};
use mft_delay::Technology;

/// A named registry of [`Corner`]s.
///
/// The library owns one svt base entry per corner name; [`TechLibrary::resolve`]
/// re-flavors a base entry to a requested Vt on the way out. The standard
/// library re-registers the three [`Technology`] presets as corners, so every
/// technology the server historically accepted stays loadable — and error
/// messages can enumerate [`TechLibrary::corner_names`] instead of hardcoding
/// the list.
#[derive(Debug, Clone, Default)]
pub struct TechLibrary {
    corners: Vec<Corner>,
}

impl TechLibrary {
    /// An empty library.
    pub fn new() -> Self {
        TechLibrary::default()
    }

    /// The standard library: the three `Technology` presets as corners.
    ///
    /// | name | voltage | temp | notes |
    /// |---|---|---|---|
    /// | `130nm` | 1.2 V | 25 °C | the paper's node; the default corner |
    /// | `180nm` | 1.8 V | 25 °C | slower, larger caps, cheaper leakage |
    /// | `65nm` | 1.0 V | 25 °C | faster, leakier |
    pub fn standard() -> Self {
        let mut lib = TechLibrary::new();
        lib.register(Corner {
            name: "130nm".into(),
            vt: Vt::Svt,
            voltage: 1.2,
            temperature: 25.0,
            tech: Technology::cmos_130nm(),
            power: PowerParams::default(),
        });
        lib.register(Corner {
            name: "180nm".into(),
            vt: Vt::Svt,
            voltage: 1.8,
            temperature: 25.0,
            tech: Technology::cmos_180nm(),
            power: PowerParams {
                leakage: 0.5,
                switching_energy: 9.0,
                activity: 0.4,
                activity_decay: 0.96,
            },
        });
        lib.register(Corner {
            name: "65nm".into(),
            vt: Vt::Svt,
            voltage: 1.0,
            temperature: 25.0,
            tech: Technology::cmos_65nm(),
            power: PowerParams {
                leakage: 2.5,
                switching_energy: 4.5,
                activity: 0.4,
                activity_decay: 0.96,
            },
        });
        lib
    }

    /// Registers (or replaces, by name) an svt base corner.
    ///
    /// # Panics
    ///
    /// Panics if the corner fails [`Corner::validate`] — the library only
    /// holds physical entries.
    pub fn register(&mut self, corner: Corner) {
        corner
            .validate()
            .unwrap_or_else(|e| panic!("invalid corner `{}`: {e}", corner.name));
        if let Some(existing) = self.corners.iter_mut().find(|c| c.name == corner.name) {
            *existing = corner;
        } else {
            self.corners.push(corner);
        }
    }

    /// Looks up a base corner by exact name.
    pub fn get(&self, name: &str) -> Option<&Corner> {
        self.corners.iter().find(|c| c.name == name)
    }

    /// Every registered corner name, in registration order.
    pub fn corner_names(&self) -> Vec<&str> {
        self.corners.iter().map(|c| c.name.as_str()).collect()
    }

    /// Iterates the registered base corners.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Corner> {
        self.corners.iter()
    }

    /// Resolves `(corner, vt)` to an owned, flavored [`Corner`].
    ///
    /// `None` picks the first registered corner (the default node) and svt
    /// respectively, so `resolve(None, None)` on the standard library is the
    /// exact default configuration.
    ///
    /// # Errors
    ///
    /// [`TechError::UnknownCorner`] (carrying every accepted name) or
    /// [`TechError::UnknownVt`].
    pub fn resolve(&self, corner: Option<&str>, vt: Option<&str>) -> Result<Corner, TechError> {
        let base = match corner {
            Some(name) => self.get(name).ok_or_else(|| TechError::UnknownCorner {
                name: name.into(),
                known: self.corners.iter().map(|c| c.name.clone()).collect(),
            })?,
            None => self
                .corners
                .first()
                .ok_or_else(|| TechError::UnknownCorner {
                    name: "<default>".into(),
                    known: Vec::new(),
                })?,
        };
        let vt = match vt {
            Some(name) => Vt::parse(name)?,
            None => Vt::Svt,
        };
        Ok(base.clone().with_vt(vt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_has_the_three_presets() {
        let lib = TechLibrary::standard();
        assert_eq!(lib.corner_names(), ["130nm", "180nm", "65nm"]);
        assert_eq!(lib.get("130nm").unwrap().tech, Technology::cmos_130nm());
        assert_eq!(lib.get("180nm").unwrap().tech, Technology::cmos_180nm());
        assert_eq!(lib.get("65nm").unwrap().tech, Technology::cmos_65nm());
        for corner in lib.iter() {
            corner.validate().unwrap();
        }
    }

    #[test]
    fn resolve_defaults_to_the_first_corner_svt() {
        let lib = TechLibrary::standard();
        let c = lib.resolve(None, None).unwrap();
        assert_eq!(c.name, "130nm");
        assert_eq!(c.vt, Vt::Svt);
        assert_eq!(c.tech, Technology::cmos_130nm());
    }

    #[test]
    fn resolve_flavors_without_mutating_the_base() {
        let lib = TechLibrary::standard();
        let lvt = lib.resolve(Some("65nm"), Some("lvt")).unwrap();
        assert_eq!(lvt.vt, Vt::Lvt);
        assert!(lvt.tech.r_nmos < Technology::cmos_65nm().r_nmos);
        // The base entry is untouched.
        assert_eq!(lib.get("65nm").unwrap().tech, Technology::cmos_65nm());
    }

    #[test]
    fn resolve_reports_every_known_name() {
        let lib = TechLibrary::standard();
        let err = lib.resolve(Some("90nm"), None).unwrap_err();
        match err {
            TechError::UnknownCorner { name, known } => {
                assert_eq!(name, "90nm");
                assert_eq!(known, ["130nm", "180nm", "65nm"]);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(matches!(
            lib.resolve(None, Some("zvt")),
            Err(TechError::UnknownVt { .. })
        ));
    }

    #[test]
    fn register_replaces_by_name() {
        let mut lib = TechLibrary::standard();
        let mut hot = lib.get("130nm").unwrap().clone();
        hot.temperature = 125.0;
        lib.register(hot);
        assert_eq!(lib.corner_names(), ["130nm", "180nm", "65nm"]);
        assert_eq!(lib.get("130nm").unwrap().temperature, 125.0);
    }

    #[test]
    #[should_panic(expected = "invalid corner")]
    fn register_rejects_invalid_corners() {
        let mut lib = TechLibrary::new();
        let mut c = Corner::default();
        c.power.leakage = -1.0;
        lib.register(c);
    }
}
