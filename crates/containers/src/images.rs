//! Container images and the node-local image store.
//!
//! The paper pulls `alpine` "from a locally deployed harbor container
//! registry to minimize image pull time" (§IV-B); we model exactly that:
//! a first pull pays a registry round trip proportional to size, later
//! pulls hit the local cache.

use std::collections::{BTreeMap, BTreeSet};

use shs_des::SimDur;

/// An image descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Reference, e.g. `registry.local/library/alpine:3.20`.
    pub reference: String,
    /// Compressed size in bytes (drives pull time).
    pub size_bytes: u64,
}

impl Image {
    /// The minimal image the paper's admission experiments launch.
    pub fn alpine() -> Image {
        Image { reference: "registry.local/library/alpine:3.20".into(), size_bytes: 3_500_000 }
    }
}

/// Image-store timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageStoreParams {
    /// Registry round-trip + unpack fixed cost on a cold pull.
    pub pull_base: SimDur,
    /// Additional pull time per MiB on a cold pull (local registry link).
    pub pull_per_mib: SimDur,
    /// Digest check against the cache on a warm pull.
    pub cache_check: SimDur,
}

impl Default for ImageStoreParams {
    fn default() -> Self {
        ImageStoreParams {
            pull_base: SimDur::from_millis(350),
            pull_per_mib: SimDur::from_millis(40),
            cache_check: SimDur::from_millis(30),
        }
    }
}

/// Node-local image store.
#[derive(Debug)]
pub struct ImageStore {
    params: ImageStoreParams,
    known: BTreeMap<String, Image>,
    cached: BTreeSet<String>,
}

impl Default for ImageStore {
    fn default() -> Self {
        ImageStore::new(ImageStoreParams::default())
    }
}

impl ImageStore {
    /// Store with given parameters.
    pub fn new(params: ImageStoreParams) -> Self {
        ImageStore { params, known: BTreeMap::new(), cached: BTreeSet::new() }
    }

    /// Register an image in the (local harbor) registry.
    pub fn publish(&mut self, image: Image) {
        self.known.insert(image.reference.clone(), image);
    }

    /// Ensure an image is locally available; returns the time the pull
    /// (or cache check) takes, or `None` if the reference is unknown.
    pub(crate) fn ensure(&mut self, reference: &str) -> Option<SimDur> {
        let img = self.known.get(reference)?;
        if self.cached.contains(reference) {
            return Some(self.params.cache_check);
        }
        let mib = img.size_bytes.div_ceil(1 << 20);
        let cost = self.params.pull_base + self.params.pull_per_mib * mib;
        self.cached.insert(reference.to_string());
        Some(cost)
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_pull_then_warm_cache() {
        let mut store = ImageStore::default();
        store.publish(Image::alpine());
        let alpine = Image::alpine().reference;
        assert!(!store.cached.contains(&alpine));
        let cold = store.ensure(&alpine).unwrap();
        assert!(store.cached.contains(&alpine));
        let warm = store.ensure(&alpine).unwrap();
        assert!(cold > warm, "cold {cold} vs warm {warm}");
        assert_eq!(warm, SimDur::from_millis(30));
    }

    #[test]
    fn unknown_reference_fails() {
        let mut store = ImageStore::default();
        assert!(store.ensure("registry.local/nope:latest").is_none());
    }

    #[test]
    fn pull_time_scales_with_size() {
        let mut store = ImageStore::default();
        store.publish(Image { reference: "small".into(), size_bytes: 1 << 20 });
        store.publish(Image { reference: "big".into(), size_bytes: 100 << 20 });
        let s = store.ensure("small").unwrap();
        let b = store.ensure("big").unwrap();
        assert!(b > s);
    }
}
