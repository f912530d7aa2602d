//! Strongly-typed identifiers for the entities in the scheduling model.
//!
//! All identifiers are small dense integers so they can index `Vec`s
//! directly; the newtypes exist purely to prevent mixing them up.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// The identifier as a usable `usize` index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(v: usize) -> Self {
                $name(v as $inner)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a job within one simulation episode.
    JobId,
    u32
);
id_type!(
    /// Identifies a stage (DAG node) *within its job*.
    StageId,
    u32
);
id_type!(
    /// Identifies one executor slot in the cluster.
    ExecutorId,
    u32
);
id_type!(
    /// Identifies an executor class in the multi-resource setting.
    ClassId,
    u16
);

/// A fully-qualified reference to one DAG node: `(job, stage)`.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize, Default,
)]
pub struct NodeRef {
    /// The owning job.
    pub job: JobId,
    /// The stage within the job's DAG.
    pub stage: StageId,
}

impl NodeRef {
    /// Convenience constructor.
    #[inline]
    pub fn new(job: JobId, stage: StageId) -> Self {
        NodeRef { job, stage }
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.job, self.stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_index_and_convert() {
        let j = JobId::from(7usize);
        assert_eq!(j.index(), 7);
        assert_eq!(format!("{j}"), "7");
        assert_eq!(format!("{j:?}"), "JobId(7)");
    }

    #[test]
    fn node_ref_display() {
        let n = NodeRef::new(JobId(2), StageId(5));
        assert_eq!(format!("{n}"), "2:5");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        fn hashable<T: std::hash::Hash>() {}
        hashable::<StageId>();
        let mut set = BTreeSet::new();
        set.insert(StageId(1));
        set.insert(StageId(1));
        set.insert(StageId(2));
        assert_eq!(set.len(), 2);
        assert!(StageId(1) < StageId(2));
    }
}
