//! # lira-server
//!
//! Mobile CQ server substrate for the LIRA reproduction: the last-report
//! node store with dead-reckoning prediction, the continual range-query
//! engine, the bounded position-update input queue
//! (with the λ/μ observations THROTLOOP consumes), the base-station layer,
//! the mobile-node-side shedder with its tiny 5×5 lookup grid, and a
//! standalone TPR-tree over moving points.
//!
//! ```
//! use lira_server::prelude::*;
//! use lira_core::geometry::{Point, Rect};
//!
//! let mut server = CqServer::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 4);
//! server.register_query(RangeQuery { id: 0, range: Rect::from_coords(0.0, 0.0, 50.0, 50.0) });
//! server.ingest(2, 0.0, Point::new(10.0, 10.0), (1.0, 0.0));
//! let results = server.evaluate(0.0);
//! assert_eq!(results[0].nodes, vec![2]);
//! ```

pub mod base_station;
pub mod channel;
pub mod cq_engine;
pub mod history;
pub mod mobile;
pub mod node_store;
mod qindex;
pub mod query;
pub mod queue;
pub mod tpr_tree;
pub mod unified;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::base_station::{
        density_dependent_placement, mean_broadcast_bytes, mean_regions_per_station, station_for,
        uniform_placement, BaseStation,
    };
    pub use crate::channel::{
        ChannelStats, DelayModel, Delivery, FaultProfile, FaultyChannel, LossModel, Outage,
        RetryPolicy,
    };
    pub use crate::cq_engine::{rebalance_from_env, CqServer, EvalEngine};
    pub use crate::history::HistoryStore;
    pub use crate::mobile::{MobileShedder, LOCAL_GRID_SIDE};
    pub use crate::node_store::{NodeStore, StoredModel};
    pub use crate::query::{sorted_difference_count, QueryResult, RangeQuery, UncertainResult};
    pub use crate::queue::UpdateQueue;
    pub use crate::tpr_tree::{MovingPoint, TprTree};
    pub use crate::unified::{RestripeStats, ShardStats, MAX_SHARDS};
}
