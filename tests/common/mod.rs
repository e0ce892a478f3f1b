//! Shared by the integration tests that compare the router's arena path
//! against the owned-tree reference.

use cds_router::{OracleRequest, OracleWorkspace, SteinerMethod, SteinerOracle};
use cds_topo::EmbeddedTree;

/// Forces the router through the owned-tree compat path: only `route`
/// is implemented, so the default `route_into` builds an owned
/// `EmbeddedTree` per net and copies it into the forest.
pub struct OwnedPathCd;

impl SteinerOracle for OwnedPathCd {
    fn name(&self) -> &str {
        "CD-owned"
    }
    fn uses_budgets(&self) -> bool {
        false
    }
    fn route(&self, req: &OracleRequest<'_>, ws: &mut OracleWorkspace) -> EmbeddedTree {
        SteinerMethod::Cd.oracle().route(req, ws)
    }
}
