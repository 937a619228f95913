//! The community-request pipeline.
//!
//! §1: XCBC/XNIT content is steered by "two very important groups of
//! community representatives": the XSEDE Campus Champions ("more than
//! 250 individuals at more than 200 institutions") and ACI-REF. §2:
//! XNIT software "continues to evolve in response to community
//! requests." This module models that pipeline: requests arrive from
//! champions, get triaged, and accepted ones land in the XNIT repo as
//! new packages — growing the toolkit exactly the way the paper
//! describes.

use xcbc_rpm::{Package, PackageBuilder, PackageGroup};
use xcbc_yum::Repository;

/// Who asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequesterGroup {
    CampusChampion,
    AciRef,
    SiteAdministrator,
}

/// Lifecycle of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    Submitted,
    Accepted,
    Rejected { reason: RejectReason },
    Shipped { in_release: u32 },
}

/// Why a request is declined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Already in the XCBC catalog or XNIT.
    AlreadyAvailable,
    /// Licensing prevents redistribution (the toolkit is open source).
    NotOpenSource,
    /// Does not build on the CentOS 6 baseline.
    DoesNotBuild,
}

/// One software request.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftwareRequest {
    pub id: u32,
    pub package_name: String,
    pub version: String,
    pub requester: RequesterGroup,
    pub institution: String,
    pub open_source: bool,
    pub builds_on_el6: bool,
    pub state: RequestState,
}

/// The pipeline: triage requests against a repo, ship accepted ones.
#[derive(Debug, Default)]
pub struct RequestPipeline {
    requests: Vec<SoftwareRequest>,
    next_id: u32,
    releases_shipped: u32,
}

impl RequestPipeline {
    pub fn new() -> Self {
        Self::default()
    }

    /// File a new request.
    pub fn submit(
        &mut self,
        package_name: &str,
        version: &str,
        requester: RequesterGroup,
        institution: &str,
        open_source: bool,
        builds_on_el6: bool,
    ) -> u32 {
        self.next_id += 1;
        self.requests.push(SoftwareRequest {
            id: self.next_id,
            package_name: package_name.to_string(),
            version: version.to_string(),
            requester,
            institution: institution.to_string(),
            open_source,
            builds_on_el6,
            state: RequestState::Submitted,
        });
        self.next_id
    }

    pub fn requests(&self) -> &[SoftwareRequest] {
        &self.requests
    }

    /// Triage everything submitted: reject duplicates/closed-source/
    /// non-building, accept the rest.
    pub fn triage(&mut self, repo: &Repository) {
        for r in &mut self.requests {
            if r.state != RequestState::Submitted {
                continue;
            }
            r.state = if repo.newest(&r.package_name).is_some() {
                RequestState::Rejected {
                    reason: RejectReason::AlreadyAvailable,
                }
            } else if !r.open_source {
                RequestState::Rejected {
                    reason: RejectReason::NotOpenSource,
                }
            } else if !r.builds_on_el6 {
                RequestState::Rejected {
                    reason: RejectReason::DoesNotBuild,
                }
            } else {
                RequestState::Accepted
            };
        }
    }

    /// Ship a release: package every accepted request into `repo`.
    /// Returns the packages added.
    pub fn ship_release(&mut self, repo: &mut Repository) -> Vec<Package> {
        self.releases_shipped += 1;
        let release = self.releases_shipped;
        let mut shipped = Vec::new();
        for r in &mut self.requests {
            if r.state == RequestState::Accepted {
                let pkg = PackageBuilder::new(&r.package_name, &r.version, "1.el6")
                    .group(PackageGroup::ScientificApplications)
                    .summary(format!("community request from {}", r.institution))
                    .file(format!("/usr/bin/{}", r.package_name))
                    .build();
                repo.add_package(pkg.clone());
                shipped.push(pkg);
                r.state = RequestState::Shipped {
                    in_release: release,
                };
            }
        }
        shipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xnit::xnit_repository;

    fn pipeline_with_requests() -> (RequestPipeline, Repository) {
        let mut p = RequestPipeline::new();
        p.submit(
            "openfoam",
            "2.3.0",
            RequesterGroup::CampusChampion,
            "Marshall University",
            true,
            true,
        );
        p.submit(
            "gromacs",
            "4.6.5",
            RequesterGroup::SiteAdministrator,
            "Montana State",
            true,
            true,
        );
        p.submit(
            "matlab",
            "R2014a",
            RequesterGroup::AciRef,
            "University of Hawaii",
            false,
            true,
        );
        p.submit(
            "cuda-ancient",
            "3.0",
            RequesterGroup::CampusChampion,
            "Howard University",
            true,
            false,
        );
        (p, xnit_repository())
    }

    #[test]
    fn triage_classifies_correctly() {
        let (mut p, repo) = pipeline_with_requests();
        p.triage(&repo);
        let by_name = |n: &str| p.requests().iter().find(|r| r.package_name == n).unwrap();
        assert_eq!(by_name("openfoam").state, RequestState::Accepted);
        assert_eq!(
            by_name("gromacs").state,
            RequestState::Rejected {
                reason: RejectReason::AlreadyAvailable
            }
        );
        assert_eq!(
            by_name("matlab").state,
            RequestState::Rejected {
                reason: RejectReason::NotOpenSource
            }
        );
        assert_eq!(
            by_name("cuda-ancient").state,
            RequestState::Rejected {
                reason: RejectReason::DoesNotBuild
            }
        );
    }

    #[test]
    fn shipping_grows_xnit() {
        let (mut p, mut repo) = pipeline_with_requests();
        let before = repo.package_count();
        p.triage(&repo);
        let shipped = p.ship_release(&mut repo);
        assert_eq!(shipped.len(), 1);
        assert_eq!(repo.package_count(), before + 1);
        assert!(repo.newest("openfoam").is_some());
        // the request is marked shipped in release 1
        assert!(p
            .requests()
            .iter()
            .any(|r| r.state == RequestState::Shipped { in_release: 1 }));
    }

    #[test]
    fn second_release_does_not_reship() {
        let (mut p, mut repo) = pipeline_with_requests();
        p.triage(&repo);
        p.ship_release(&mut repo);
        let again = p.ship_release(&mut repo);
        assert!(again.is_empty());
    }

    #[test]
    fn duplicate_request_after_shipping_rejected() {
        let (mut p, mut repo) = pipeline_with_requests();
        p.triage(&repo);
        p.ship_release(&mut repo);
        p.submit(
            "openfoam",
            "2.3.1",
            RequesterGroup::AciRef,
            "Kean University",
            true,
            true,
        );
        p.triage(&repo);
        let last = p.requests().last().unwrap();
        assert_eq!(
            last.state,
            RequestState::Rejected {
                reason: RejectReason::AlreadyAvailable
            }
        );
    }

    #[test]
    fn counts() {
        let (mut p, repo) = pipeline_with_requests();
        p.triage(&repo);
        let count =
            |f: fn(&RequestState) -> bool| p.requests().iter().filter(|r| f(&r.state)).count();
        assert_eq!(count(|s| *s == RequestState::Accepted), 1);
        assert_eq!(count(|s| matches!(s, RequestState::Rejected { .. })), 3);
    }
}
