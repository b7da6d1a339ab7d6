//! Binary images: the symbol-table working set a daemon must read.
//!
//! Before a daemon can symbolise a stack trace it must parse the symbol tables of the
//! application executable and every shared library in the address space.  The parse
//! itself is cheap CPU work; what the paper discovered (Section VI) is that the *read*
//! is not cheap when a thousand daemons do it simultaneously against one NFS server.
//! [`working_set_of`] lists a cluster's images; the sampling cost model
//! (`SamplingCostModel::estimate`) charges each daemon one read of every image —
//! its size times `SamplingConfig::symtab_read_fraction` — to the file system,
//! and SBRS relocates the same working set.

/// One binary image (executable or shared library) in the target's address space.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BinaryImage {
    /// Path as the application sees it (used for mount-table classification).
    pub path: String,
    /// File size in bytes; symbol-table parsing reads a size-proportional fraction.
    pub bytes: u64,
}

impl BinaryImage {
    /// Construct an image record.
    pub fn new(path: impl Into<String>, bytes: u64) -> Self {
        BinaryImage {
            path: path.into(),
            bytes,
        }
    }
}

/// Build the [`BinaryImage`] working set of a cluster's target application.
pub fn working_set_of(cluster: &machine::Cluster) -> Vec<BinaryImage> {
    cluster
        .binary_working_set
        .iter()
        .map(|(path, bytes)| BinaryImage::new(path.clone(), *bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::cluster::{BglMode, Cluster};

    #[test]
    fn working_sets_match_the_machines() {
        let atlas = working_set_of(&Cluster::atlas());
        assert!(
            atlas.len() >= 3,
            "dynamically linked app has several images"
        );
        let bgl = working_set_of(&Cluster::bluegene_l(BglMode::CoProcessor));
        assert_eq!(bgl.len(), 1, "statically linked app is one image");
        assert!(bgl[0].bytes > atlas[0].bytes, "static binary is bigger");
    }
}
