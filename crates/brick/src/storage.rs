//! Physical brick storage: one contiguous run of `f64`s holding all
//! bricks, optionally multi-field interleaved (array-of-structure-of-array
//! as in the paper's Section 6), and optionally backed by a memory-mapped
//! file supplied by an external backing.

/// Abstract backing memory for a [`BrickStorage`]. The default heap
/// backing is [`HeapBacking`]; the `memview` crate provides an
/// mmap-over-`memfd` backing enabling the paper's MemMap views.
pub trait StorageBacking: Send + Sync {
    /// The whole backing as elements.
    fn as_slice(&self) -> &[f64];
    /// The whole backing as mutable elements.
    fn as_mut_slice(&mut self) -> &mut [f64];
}

/// Plain heap backing.
pub struct HeapBacking {
    data: Vec<f64>,
}

impl HeapBacking {
    /// Zero-initialized heap backing of `len` elements.
    pub fn new(len: usize) -> Self {
        HeapBacking { data: vec![0.0; len] }
    }
}

impl StorageBacking for HeapBacking {
    fn as_slice(&self) -> &[f64] {
        &self.data
    }
    fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// All bricks of (possibly several interleaved fields of) one subdomain.
///
/// Brick `b` occupies elements `b*step .. (b+1)*step` where
/// `step = fields * elements_per_brick`; field `f` of brick `b` is the
/// sub-range `b*step + f*elems .. b*step + (f+1)*elems`. Interleaving
/// fields this way lets one exchange move every field at once.
pub struct BrickStorage {
    backing: Box<dyn StorageBacking>,
    nbricks: usize,
    fields: usize,
    elems: usize,
}

impl BrickStorage {
    /// Heap-allocated storage for `nbricks` bricks of `elems` elements
    /// each, with `fields` interleaved fields.
    pub fn allocate(nbricks: usize, elems: usize, fields: usize) -> Self {
        assert!(fields >= 1 && elems >= 1);
        let backing = Box::new(HeapBacking::new(nbricks * elems * fields));
        BrickStorage { backing, nbricks, fields, elems }
    }

    /// Storage over an externally provided backing (e.g. an mmap of a
    /// `memfd` file). The backing must hold exactly
    /// `nbricks * elems * fields` elements.
    pub fn from_backing(
        backing: Box<dyn StorageBacking>,
        nbricks: usize,
        elems: usize,
        fields: usize,
    ) -> Self {
        assert!(fields >= 1 && elems >= 1);
        assert_eq!(
            backing.as_slice().len(),
            nbricks * elems * fields,
            "backing size must match brick geometry"
        );
        BrickStorage { backing, nbricks, fields, elems }
    }

    /// Number of bricks (including any alignment filler bricks).
    #[inline]
    pub fn bricks(&self) -> usize {
        self.nbricks
    }

    /// Interleaved fields per brick.
    #[inline]
    pub fn fields(&self) -> usize {
        self.fields
    }

    /// Elements per field per brick.
    #[inline]
    pub fn elements_per_brick(&self) -> usize {
        self.elems
    }

    /// Elements per brick across all fields (the brick stride).
    #[inline]
    pub fn step(&self) -> usize {
        self.elems * self.fields
    }

    /// The whole storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self.backing.as_slice()
    }

    /// The whole storage, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.backing.as_mut_slice()
    }

    /// One brick (all fields).
    #[inline]
    pub fn brick(&self, b: u32) -> &[f64] {
        let s = self.step();
        &self.backing.as_slice()[b as usize * s..(b as usize + 1) * s]
    }

    /// One field of one brick.
    #[inline]
    pub fn field(&self, b: u32, f: usize) -> &[f64] {
        debug_assert!(f < self.fields);
        let base = b as usize * self.step() + f * self.elems;
        &self.backing.as_slice()[base..base + self.elems]
    }

    /// One field of one brick, mutable.
    #[inline]
    pub fn field_mut(&mut self, b: u32, f: usize) -> &mut [f64] {
        debug_assert!(f < self.fields);
        let base = b as usize * self.step() + f * self.elems;
        &mut self.backing.as_mut_slice()[base..base + self.elems]
    }

    /// Fill all elements with a value (tests / initialization).
    pub fn fill(&mut self, v: f64) {
        self.backing.as_mut_slice().fill(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let s = BrickStorage::allocate(10, 512, 2);
        assert_eq!(s.bricks(), 10);
        assert_eq!(s.step(), 1024);
        assert_eq!(s.as_slice().len(), 10240);
        assert_eq!(s.brick(3).len(), 1024);
        assert_eq!(s.field(3, 1).len(), 512);
    }

    #[test]
    fn field_interleaving_layout() {
        let mut s = BrickStorage::allocate(2, 4, 2);
        s.field_mut(1, 0).fill(1.0);
        s.field_mut(1, 1).fill(2.0);
        let all = s.as_slice();
        // Brick 0 untouched.
        assert!(all[..8].iter().all(|&x| x == 0.0));
        // Brick 1: field 0 then field 1.
        assert!(all[8..12].iter().all(|&x| x == 1.0));
        assert!(all[12..16].iter().all(|&x| x == 2.0));
    }

    #[test]
    fn external_backing() {
        let backing = Box::new(HeapBacking::new(64));
        let mut s = BrickStorage::from_backing(backing, 4, 8, 2);
        s.fill(7.0);
        assert!(s.as_slice().iter().all(|&x| x == 7.0));
    }

    #[test]
    #[should_panic(expected = "backing size")]
    fn wrong_backing_size_rejected() {
        let backing = Box::new(HeapBacking::new(63));
        BrickStorage::from_backing(backing, 4, 8, 2);
    }
}
