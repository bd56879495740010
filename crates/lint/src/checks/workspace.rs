//! **W1 — workspace consistency.**
//!
//! Every member listed in the root `Cargo.toml` must (a) inherit the
//! workspace version (`version.workspace = true`) or pin the exact
//! workspace version, (b) inherit or match the workspace license, and
//! (c) be mentioned in the prose docs (`README.md` or `DESIGN.md`) so
//! the crate inventory cannot drift from the documentation. A member
//! without a manifest needs no rule: cargo refuses to load such a
//! workspace.

use crate::diag::Finding;
use crate::model::{under_prefix, Workspace};

pub(super) const ID: &str = "W1";

/// Members under this directory are exempt: vendored shims keep their
/// upstream versions and licenses.
const EXEMPT: &str = "crates/shims";

/// Extract `key = "value"` or `key.workspace = true` facts from a
/// manifest's `[package]` section; returns (explicit value, inherits).
fn package_field(manifest: &str, key: &str) -> (Option<String>, bool) {
    let mut in_package = false;
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            let (k, v) = (k.trim(), v.trim());
            if k == format!("{key}.workspace") && v == "true" {
                return (None, true);
            }
            if k == key {
                return (Some(v.trim_matches('"').to_string()), false);
            }
        }
    }
    (None, false)
}

/// Extract a `key = "value"` from the `[workspace.package]` section.
fn workspace_field(root_manifest: &str, key: &str) -> Option<String> {
    let mut in_section = false;
    for raw in root_manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_section = line == "[workspace.package]";
            continue;
        }
        if in_section {
            if let Some((k, v)) = line.split_once('=') {
                if k.trim() == key {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// W1 over the workspace members, shims excepted.
pub fn workspace_consistency(ws: &Workspace, out: &mut Vec<Finding>) {
    let ws_version = workspace_field(&ws.root_manifest, "version");
    let ws_license = workspace_field(&ws.root_manifest, "license");

    for member in &ws.members {
        if under_prefix(&member.dir, EXEMPT) {
            continue;
        }
        let manifest_path = if member.dir.is_empty() {
            "Cargo.toml".to_string()
        } else {
            format!("{}/Cargo.toml", member.dir)
        };

        let (ver, ver_inherits) = package_field(&member.manifest, "version");
        let version_ok = ver_inherits || (ver.is_some() && ver == ws_version);
        if !version_ok {
            out.push(Finding {
                check: ID,
                file: manifest_path.clone(),
                line: 0,
                message: format!(
                    "crate `{}` does not inherit the workspace version \
                     (want `version.workspace = true` or version {:?}, found {:?})",
                    member.name,
                    ws_version.as_deref().unwrap_or("<unset>"),
                    ver.as_deref().unwrap_or("<missing>"),
                ),
            });
        }

        let (lic, lic_inherits) = package_field(&member.manifest, "license");
        let license_ok = lic_inherits || (lic.is_some() && lic == ws_license);
        if !license_ok {
            out.push(Finding {
                check: ID,
                file: manifest_path.clone(),
                line: 0,
                message: format!(
                    "crate `{}` does not inherit the workspace license \
                     (want `license.workspace = true` or license {:?}, found {:?})",
                    member.name,
                    ws_license.as_deref().unwrap_or("<unset>"),
                    lic.as_deref().unwrap_or("<missing>"),
                ),
            });
        }

        // Documentation mention: crate name or directory in README
        // or DESIGN.
        let mentioned = ws.docs.values().any(|text| {
            text.contains(&member.name) || (!member.dir.is_empty() && text.contains(&member.dir))
        });
        if !mentioned {
            out.push(Finding {
                check: ID,
                file: manifest_path,
                line: 0,
                message: format!(
                    "crate `{}` is not mentioned in README.md or DESIGN.md",
                    member.name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_field_reads_inherit_and_explicit() {
        let m = "[package]\nname = \"x\"\nversion.workspace = true\nlicense = \"MIT\"\n";
        assert_eq!(package_field(m, "version"), (None, true));
        assert_eq!(package_field(m, "license"), (Some("MIT".into()), false));
        assert_eq!(package_field(m, "edition"), (None, false));
    }

    #[test]
    fn workspace_field_reads_workspace_package_section() {
        let m = "[workspace]\nmembers = []\n\n[workspace.package]\nversion = \"0.1.0\"\nlicense = \"MIT OR Apache-2.0\"\n";
        assert_eq!(workspace_field(m, "version").as_deref(), Some("0.1.0"));
        assert_eq!(
            workspace_field(m, "license").as_deref(),
            Some("MIT OR Apache-2.0")
        );
    }
}
