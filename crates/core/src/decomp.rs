//! `BrickDecomp` — decomposition of one rank's subdomain into interior,
//! surface, and ghost bricks, physically ordered by a communication-
//! optimized layout (paper Sections 3 and 6, Figure 7).
//!
//! The extended brick grid (owned bricks plus the ghost rim) is
//! classified per axis into bands; surface regions `r(T)` are stored
//! contiguously in the order given by a [`SurfaceLayout`], and ghost
//! regions `g(S)` are stored grouped by source neighbor with their
//! pieces in the sender's order — so every message both leaves and lands
//! as one contiguous range of bricks. For MemMap storage, every
//! independently-mappable chunk is padded to a page boundary with filler
//! bricks, keeping the flat `index * step` addressing intact.

use std::ops::Range;

use brick::{adjacency_size, code_to_trits, BrickDims, BrickInfo, BrickStorage, NO_BRICK};
use layout::{all_regions, Dir, MessagePlan, SurfaceLayout};

/// Per-axis band of an extended-grid coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Band {
    GhostLow,
    SurfLow,
    Mid,
    SurfHigh,
    GhostHigh,
}

/// One contiguous chunk of bricks belonging to a single region or ghost
/// piece.
#[derive(Clone, Debug)]
pub struct Chunk {
    /// The region (surface chunks) or local piece slot (ghost chunks).
    pub dir: Dir,
    /// Payload brick indices.
    pub bricks: Range<usize>,
    /// Payload plus alignment filler (equals `bricks` when unpadded).
    pub padded: Range<usize>,
}

impl Chunk {
    /// Payload brick count.
    pub fn len(&self) -> usize {
        self.bricks.end - self.bricks.start
    }

    /// True when the region is geometrically empty (tiny subdomains).
    pub fn is_empty(&self) -> bool {
        self.bricks.is_empty()
    }

    /// Padded brick count.
    #[cfg(test)]
    pub(crate) fn padded_len(&self) -> usize {
        self.padded.end - self.padded.start
    }
}

/// The ghost bricks receiving from one neighbor.
#[derive(Clone, Debug)]
pub struct GhostGroup {
    /// Source neighbor direction `S` (ghost region `g(S)`).
    pub dir: Dir,
    /// Pieces in the sender's layout order of `{T ⊇ -S}`.
    pub pieces: Vec<Chunk>,
}

/// Decomposition of a subdomain into layout-ordered bricks.
pub struct BrickDecomp<const D: usize> {
    domain: [usize; D],
    ghost: usize,
    bdims: BrickDims<D>,
    fields: usize,
    layout: SurfaceLayout,
    plan: MessagePlan,
    mb: [usize; D],
    gb: [usize; D],
    ext: [usize; D],
    pad_bricks: usize,
    nbricks: usize,
    info: BrickInfo<D>,
    /// Extended-grid lex coordinate → brick index.
    grid_to_brick: Vec<u32>,
    /// Brick index → extended-grid lex coordinate (`NO_BRICK` for filler).
    brick_to_grid: Vec<u32>,
    /// Per axis, per extended element coordinate (shifted by the ghost
    /// width): its brick's term of the extended-grid lex index, and its
    /// element's term of the in-brick offset ([`BoxOffsets`]).
    axis_cell: [Vec<usize>; D],
    axis_elem: [Vec<usize>; D],
    interior: Chunk,
    surface: Vec<Chunk>,
    ghosts: Vec<GhostGroup>,
    compute_mask: Vec<bool>,
}

impl<const D: usize> BrickDecomp<D> {
    /// Decompose a `domain` (owned elements per axis) with a `ghost`-wide
    /// rim into bricks of `bdims`, storing `fields` interleaved fields,
    /// ordered by `layout`. `pad_bricks` is the chunk alignment unit in
    /// bricks (1 = unpadded, for heap/Layout storage; use
    /// [`pad_bricks_for`] for MemMap page alignment).
    pub fn new(
        domain: [usize; D],
        ghost: usize,
        bdims: BrickDims<D>,
        fields: usize,
        layout: SurfaceLayout,
        pad_bricks: usize,
    ) -> BrickDecomp<D> {
        assert_eq!(layout.dims(), D, "layout dimensionality mismatch");
        assert!(ghost >= 1 && fields >= 1 && pad_bricks >= 1);
        let mut mb = [0usize; D];
        let mut gb = [0usize; D];
        let mut ext = [0usize; D];
        for a in 0..D {
            let bd = bdims.extent(a);
            assert_eq!(domain[a] % bd, 0, "domain must be a brick multiple on axis {a}");
            assert_eq!(ghost % bd, 0, "ghost width must be a brick multiple on axis {a}");
            mb[a] = domain[a] / bd;
            gb[a] = ghost / bd;
            assert!(
                mb[a] >= 2 * gb[a],
                "subdomain must span at least two ghost widths on axis {a}"
            );
            ext[a] = mb[a] + 2 * gb[a];
        }

        let plan = MessagePlan::build(&layout);
        let ncells: usize = ext.iter().product();

        // --- Classify every extended-grid cell into its chunk. ---------
        // Chunk keys: 0 = interior, 1 + i = surface region i (layout
        // order), then ghost pieces keyed by (group, piece).
        let regions = all_regions(D);
        let surface_order = layout.order().to_vec();

        // Assign cells to buckets.
        let mut interior_cells: Vec<usize> = Vec::new();
        let mut surface_cells: Vec<Vec<usize>> = vec![Vec::new(); surface_order.len()];
        // ghost group g(S) for S in `regions` order; per piece in
        // recv_pieces order.
        let recv_orders: Vec<Vec<layout::RecvPiece>> =
            regions.iter().map(|s| layout.recv_pieces(s)).collect();
        let mut ghost_cells: Vec<Vec<Vec<usize>>> = recv_orders
            .iter()
            .map(|ps| vec![Vec::new(); ps.len()])
            .collect();

        for lex in 0..ncells {
            let coord = unlex::<D>(lex, &ext);
            let bands: [Band; D] = std::array::from_fn(|a| band(coord[a], mb[a], gb[a]));
            let is_ghost = bands.iter().any(|b| matches!(b, Band::GhostLow | Band::GhostHigh));
            if is_ghost {
                let s = dir_from(&bands, true);
                let t = dir_from(&bands, false); // ghost + surf axes = local slot
                let g_idx = regions.iter().position(|r| *r == s).unwrap_or_else(|| {
                    panic!("ghost cell banded to {s:?}, which is not one of the 3^D-1 regions")
                });
                let p_idx = recv_orders[g_idx]
                    .iter()
                    .position(|p| p.local_slot == t)
                    .unwrap_or_else(|| {
                        panic!("ghost piece slot {t:?} missing from recv order of region {s:?}")
                    });
                ghost_cells[g_idx][p_idx].push(lex);
            } else {
                let t = dir_from(&bands, false);
                if t.is_empty() {
                    interior_cells.push(lex);
                } else {
                    let r_idx = surface_order.iter().position(|r| *r == t).unwrap_or_else(|| {
                        panic!("surface cell banded to {t:?}, which the layout order does not list")
                    });
                    surface_cells[r_idx].push(lex);
                }
            }
        }

        // --- Assign physical brick indices chunk by chunk. --------------
        let mut grid_to_brick = vec![NO_BRICK; ncells];
        let mut next = 0usize;
        let mut filler: Vec<Range<usize>> = Vec::new();
        let mut place = |cells: &[usize], grid_to_brick: &mut Vec<u32>| -> (Range<usize>, Range<usize>) {
            let start = next;
            for &lex in cells {
                grid_to_brick[lex] = next as u32;
                next += 1;
            }
            let payload_end = next;
            // Pad so the next chunk starts on an absolute multiple of
            // pad_bricks (chunks always begin on one, inductively).
            let padded_end = payload_end.div_ceil(pad_bricks) * pad_bricks;
            if padded_end > payload_end {
                filler.push(payload_end..padded_end);
            }
            next = padded_end;
            (start..payload_end, start..padded_end)
        };

        let (ibricks, ipadded) = place(&interior_cells, &mut grid_to_brick);
        let interior = Chunk { dir: Dir::EMPTY, bricks: ibricks, padded: ipadded };

        let mut surface = Vec::with_capacity(surface_order.len());
        for (i, cells) in surface_cells.iter().enumerate() {
            let (bricks, padded) = place(cells, &mut grid_to_brick);
            surface.push(Chunk { dir: surface_order[i], bricks, padded });
        }

        let mut ghosts = Vec::with_capacity(regions.len());
        for (g_idx, s) in regions.iter().enumerate() {
            let mut pieces = Vec::with_capacity(recv_orders[g_idx].len());
            for (p_idx, piece) in recv_orders[g_idx].iter().enumerate() {
                let (bricks, padded) = place(&ghost_cells[g_idx][p_idx], &mut grid_to_brick);
                pieces.push(Chunk { dir: piece.local_slot, bricks, padded });
            }
            ghosts.push(GhostGroup { dir: *s, pieces });
        }

        let nbricks = next;
        let mut brick_to_grid = vec![NO_BRICK; nbricks];
        for (lex, &b) in grid_to_brick.iter().enumerate() {
            brick_to_grid[b as usize] = lex as u32;
        }
        let (mut cell_stride, mut elem_stride) = (1, 1);
        let mut axis_cell: [Vec<usize>; D] = std::array::from_fn(|_| Vec::new());
        let mut axis_elem: [Vec<usize>; D] = std::array::from_fn(|_| Vec::new());
        for a in 0..D {
            let bd = bdims.extent(a);
            let extended = 0..domain[a] + 2 * ghost;
            axis_cell[a] = extended.clone().map(|p| p / bd * cell_stride).collect();
            axis_elem[a] = extended.map(|p| p % bd * elem_stride).collect();
            cell_stride *= ext[a];
            elem_stride *= bd;
        }

        // --- Adjacency over the extended grid (non-periodic: the rim IS
        // the halo; wrap happens between ranks). ------------------------
        let adj_n = adjacency_size(D);
        let mut adjacency = vec![NO_BRICK; nbricks * adj_n];
        for lex in 0..ncells {
            let b = grid_to_brick[lex];
            debug_assert_ne!(b, NO_BRICK);
            let coord = unlex::<D>(lex, &ext);
            let row = b as usize * adj_n;
            adjacency[row] = b;
            for code in 1..adj_n {
                let trits = code_to_trits::<D>(code);
                if let Some(nlex) = shift::<D>(&coord, &trits, &ext) {
                    adjacency[row + code] = grid_to_brick[nlex];
                }
            }
        }
        // Filler bricks: self-adjacency only.
        for f in &filler {
            for b in f.clone() {
                adjacency[b * adj_n] = b as u32;
            }
        }
        let info = BrickInfo::from_adjacency(bdims, nbricks, adjacency);

        // Compute mask: interior + surface payload bricks.
        let mut compute_mask = vec![false; nbricks];
        for b in interior.bricks.clone() {
            compute_mask[b] = true;
        }
        for c in &surface {
            for b in c.bricks.clone() {
                compute_mask[b] = true;
            }
        }

        BrickDecomp {
            domain,
            ghost,
            bdims,
            fields,
            layout,
            plan,
            mb,
            gb,
            ext,
            pad_bricks,
            nbricks,
            info,
            grid_to_brick,
            brick_to_grid,
            axis_cell,
            axis_elem,
            interior,
            surface,
            ghosts,
            compute_mask,
        }
    }

    /// Convenience constructor for heap (Layout) storage: no padding.
    pub fn layout_mode(
        domain: [usize; D],
        ghost: usize,
        bdims: BrickDims<D>,
        fields: usize,
        layout: SurfaceLayout,
    ) -> BrickDecomp<D> {
        BrickDecomp::new(domain, ghost, bdims, fields, layout, 1)
    }

    /// Owned domain extents (elements).
    pub fn domain(&self) -> [usize; D] {
        self.domain
    }

    /// Ghost width (elements).
    pub fn ghost_width(&self) -> usize {
        self.ghost
    }

    /// Interleaved fields.
    pub fn fields(&self) -> usize {
        self.fields
    }

    /// Brick extents.
    pub fn brick_dims(&self) -> BrickDims<D> {
        self.bdims
    }

    /// Owned grid points per timestep (the GStencil/s numerator).
    pub fn points(&self) -> u64 {
        self.domain.iter().product::<usize>() as u64
    }

    /// The surface layout in use.
    pub fn layout(&self) -> &SurfaceLayout {
        &self.layout
    }

    /// The message plan derived from the layout.
    pub fn plan(&self) -> &MessagePlan {
        &self.plan
    }

    /// Chunk alignment unit (bricks).
    pub fn pad_bricks(&self) -> usize {
        self.pad_bricks
    }

    /// Total bricks including ghost rim and filler.
    pub fn bricks(&self) -> usize {
        self.nbricks
    }

    /// The `BrickInfo` for computation (paper's `getBrickInfo`).
    pub fn brick_info(&self) -> &BrickInfo<D> {
        &self.info
    }

    /// Which bricks computation covers (interior + surface; ghost and
    /// filler bricks excluded).
    pub fn compute_mask(&self) -> &[bool] {
        &self.compute_mask
    }

    /// Mask selecting only interior bricks — the work that can overlap
    /// an in-flight exchange, because it reads no ghost data.
    pub fn interior_mask(&self) -> Vec<bool> {
        let mut m = vec![false; self.nbricks];
        for b in self.interior.bricks.clone() {
            m[b] = true;
        }
        m
    }

    /// Interior chunk.
    pub fn interior(&self) -> &Chunk {
        &self.interior
    }

    /// Surface chunks in layout order.
    pub fn surface_chunks(&self) -> &[Chunk] {
        &self.surface
    }

    /// Ghost groups in `all_regions(D)` order.
    pub fn ghost_groups(&self) -> &[GhostGroup] {
        &self.ghosts
    }

    /// Surface chunk for a region.
    pub fn surface_chunk(&self, t: &Dir) -> &Chunk {
        self.surface
            .iter()
            .find(|c| c.dir == *t)
            .unwrap_or_else(|| panic!("no surface chunk for region {t:?}"))
    }

    /// Ghost group for a neighbor.
    pub fn ghost_group(&self, s: &Dir) -> &GhostGroup {
        self.ghosts
            .iter()
            .find(|g| g.dir == *s)
            .unwrap_or_else(|| panic!("no ghost group for neighbor {s:?}"))
    }

    /// Heap-allocate storage (paper's `bInfo.allocate`).
    pub fn allocate(&self) -> BrickStorage {
        self.info.allocate(self.fields)
    }

    /// Brick index at an extended-grid coordinate.
    pub fn brick_at(&self, coord: [usize; D]) -> u32 {
        self.grid_to_brick[lex::<D>(&coord, &self.ext)]
    }

    /// Extended grid extents (bricks).
    pub fn grid_extents(&self) -> [usize; D] {
        self.ext
    }

    /// Ghost-rim bricks per axis.
    pub fn ghost_bricks(&self) -> [usize; D] {
        self.gb
    }

    /// Owned bricks per axis.
    pub fn owned_bricks(&self) -> [usize; D] {
        self.mb
    }

    /// Storage offset of the element at `coord` (owned frame: each axis
    /// in `-ghost .. domain+ghost`) of `field`.
    pub fn element_offset(&self, coord: [isize; D], field: usize) -> usize {
        let mut bc = [0usize; D];
        let mut lc = [0usize; D];
        for a in 0..D {
            let p = coord[a] + self.ghost as isize;
            assert!(
                p >= 0 && (p as usize) < self.domain[a] + 2 * self.ghost,
                "coordinate outside extended domain on axis {a}"
            );
            bc[a] = p as usize / self.bdims.extent(a);
            lc[a] = p as usize % self.bdims.extent(a);
        }
        let b = self.brick_at(bc);
        b as usize * self.bdims.elements() * self.fields
            + field * self.bdims.elements()
            + self.bdims.flatten(lc)
    }

    /// The owned bricks in storage order — the interior chunk, then the
    /// surface chunks in layout order, alignment filler skipped — each
    /// with the owned-frame coordinate of its first element. A walk
    /// that does not depend on order visits the owned storage front to
    /// back through this, one brick at a time.
    pub fn owned_brick_bases(&self) -> impl Iterator<Item = (usize, [usize; D])> + '_ {
        std::iter::once(&self.interior).chain(&self.surface).flat_map(|c| c.bricks.clone()).map(
            move |b| {
                let cell = unlex::<D>(self.brick_to_grid[b] as usize, &self.ext);
                (b, std::array::from_fn(|a| (cell[a] - self.gb[a]) * self.bdims.extent(a)))
            },
        )
    }

    /// Storage offsets of `field` over the coordinate box `lo..hi`
    /// (owned frame, inside the extended domain), read from per-axis
    /// tables built with the decomposition, so a walk allocates nothing:
    /// [`BoxOffsets::for_each`] walks the box in the canonical order and
    /// [`BoxOffsets::offset`] answers single points, neither dividing per
    /// point.
    pub fn box_offsets(&self, lo: [isize; D], hi: [isize; D], field: usize) -> BoxOffsets<'_, D> {
        assert!(field < self.fields, "field {field} of {}", self.fields);
        let g = self.ghost as isize;
        for a in 0..D {
            assert!(
                -g <= lo[a] && lo[a] <= hi[a] && hi[a] <= (self.domain[a] + self.ghost) as isize,
                "box outside extended domain on axis {a}"
            );
        }
        let span = |a: usize| (lo[a] + g) as usize..(hi[a] + g) as usize;
        BoxOffsets {
            grid_to_brick: &self.grid_to_brick,
            step: self.step(),
            field_base: field * self.bdims.elements(),
            lo,
            cell: std::array::from_fn(|a| &self.axis_cell[a][span(a)]),
            elem: std::array::from_fn(|a| &self.axis_elem[a][span(a)]),
        }
    }

    /// Brick count of region `r(T)` (or of a mirrored ghost piece —
    /// symmetric).
    pub fn region_bricks(&self, t: &Dir) -> usize {
        (0..D)
            .map(|a| if t.axis(a) != 0 { self.gb[a] } else { self.mb[a] - 2 * self.gb[a] })
            .product()
    }

    /// Elements per brick across all fields.
    pub fn step(&self) -> usize {
        self.bdims.elements() * self.fields
    }

    /// Length in elements of the storage prefix holding everything this
    /// rank owns. Chunks are placed interior first, then the surface
    /// regions, then the ghost groups, so the owned bricks (with their
    /// alignment filler) end where the last surface chunk's padded range
    /// does and everything from there on is ghost rim — the state a
    /// checkpoint need not carry ([`crate::checkpoint`]).
    pub fn owned_elems(&self) -> usize {
        let end = self.surface.last().map_or(self.interior.padded.end, |c| c.padded.end);
        debug_assert!(
            self.ghosts.iter().flat_map(|g| &g.pieces).all(|p| p.padded.start >= end),
            "a ghost piece is stored below the owned prefix"
        );
        end * self.step()
    }
}

/// Storage offsets over one coordinate box of a [`BrickDecomp`]
/// ([`BrickDecomp::box_offsets`]). Each axis has, per box coordinate,
/// its brick's term of the extended-grid index and its element's term of
/// the in-brick offset, so a point's offset is two sums and one brick
/// lookup — what [`BrickDecomp::element_offset`] computes with a divide
/// and a modulo per axis.
pub struct BoxOffsets<'a, const D: usize> {
    grid_to_brick: &'a [u32],
    step: usize,
    field_base: usize,
    lo: [isize; D],
    cell: [&'a [usize]; D],
    elem: [&'a [usize]; D],
}

impl<const D: usize> BoxOffsets<'_, D> {
    /// Storage offset of `coord`, which must lie in the box.
    #[inline]
    pub fn offset(&self, coord: [isize; D]) -> usize {
        let (cell, elem) = self.terms(&coord);
        self.grid_to_brick[cell] as usize * self.step + elem
    }

    /// Visit every coordinate of the box with its storage offset, in the
    /// canonical order: axis 0 outermost, the last axis innermost.
    /// Inlined so the caller's accumulator stays in a register: called
    /// out of line, `interior_sum` kept its running sum in memory and a
    /// 128³ checksum took about 11 instead of 8 ms on a 2-vCPU Xeon VM.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut([isize; D], usize)) {
        if self.cell.iter().any(|c| c.is_empty()) {
            return;
        }
        let last = D - 1;
        let hi: [isize; D] = std::array::from_fn(|a| self.lo[a] + self.cell[a].len() as isize);
        let mut coord = self.lo;
        'rows: loop {
            let (cell, elem) = self.terms(&coord[..last]);
            for ((&c, &e), z) in self.cell[last].iter().zip(self.elem[last]).zip(self.lo[last]..) {
                coord[last] = z;
                f(coord, self.grid_to_brick[cell + c] as usize * self.step + elem + e);
            }
            // Advance the outer axes, the innermost of them first.
            for a in (0..last).rev() {
                coord[a] += 1;
                if coord[a] < hi[a] {
                    continue 'rows;
                }
                coord[a] = self.lo[a];
            }
            return;
        }
    }

    /// The grid-index and element-offset terms of the leading axes of a
    /// coordinate (as many axes as `coord` has).
    #[inline]
    fn terms(&self, coord: &[isize]) -> (usize, usize) {
        let (mut cell, mut elem) = (0, self.field_base);
        for (((&c, &lo), cells), elems) in coord.iter().zip(&self.lo).zip(&self.cell).zip(&self.elem) {
            let i = (c - lo) as usize;
            cell += cells[i];
            elem += elems[i];
        }
        (cell, elem)
    }
}

/// Mutable brick→rank ownership map — the dynamic counterpart of the
/// static Cartesian decomposition above. A static run builds it once
/// and never touches it; a rebalanced run mutates it at each migration
/// epoch and bumps the epoch counter so every layer (exchange plan,
/// dependency graph, buddy checkpoints) can tell stale bindings from
/// current ones.
///
/// The map is deliberately *per-rank local and possibly stale for
/// non-local bricks*: after a migration only the two endpoint ranks
/// know a brick's true owner, and everyone else discovers lazily via
/// NBX forwarding (the stale entry acts as a forwarding pointer to a
/// rank that knows more). Only `owned_by(me)` is authoritative.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ownership {
    owner: Vec<u32>,
    epoch: u64,
}

impl Ownership {
    /// Ownership from an explicit per-brick owner vector (epoch 0).
    pub fn from_owners(owner: Vec<u32>) -> Ownership {
        Ownership { owner, epoch: 0 }
    }

    /// Contiguous block distribution of `nbricks` bricks over `ranks`
    /// ranks: brick `b` starts on rank `b * ranks / nbricks` (every
    /// rank gets `nbricks/ranks` bricks ±1, in id order).
    pub fn block(nbricks: usize, ranks: usize) -> Ownership {
        assert!(ranks > 0, "ownership over zero ranks");
        let owner = (0..nbricks).map(|b| (b * ranks / nbricks) as u32).collect();
        Ownership { owner, epoch: 0 }
    }

    /// Number of bricks in the map.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// True when the map covers no bricks.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// This rank's current belief about who owns `brick` (authoritative
    /// only for bricks it owns itself; otherwise a forwarding hint).
    pub fn owner_of(&self, brick: u32) -> u32 {
        let b = brick as usize;
        assert!(b < self.owner.len(), "brick {brick} outside the ownership map");
        self.owner[b]
    }

    /// Update the believed owner of `brick`.
    pub fn set_owner(&mut self, brick: u32, rank: u32) {
        let b = brick as usize;
        assert!(b < self.owner.len(), "brick {brick} outside the ownership map");
        self.owner[b] = rank;
    }

    /// Bricks believed owned by `rank`, in ascending id order.
    pub fn owned_by(&self, rank: u32) -> Vec<u32> {
        (0..self.owner.len() as u32).filter(|&b| self.owner[b as usize] == rank).collect()
    }

    /// Migration epoch this map reflects (0 = the initial static
    /// distribution).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Enter the next migration epoch.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// FNV-1a digest of the owner vector — two ranks (or two runs)
    /// holding the same distribution agree bit-for-bit.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &o in &self.owner {
            for byte in o.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Serialize into a checkpoint buffer (owner vector + epoch).
    pub fn encode(&self, out: &mut Vec<f64>) {
        out.push(f64::from_bits(self.owner.len() as u64));
        out.push(f64::from_bits(self.epoch));
        out.extend(self.owner.iter().map(|&o| f64::from_bits(u64::from(o))));
    }

    /// Inverse of [`Ownership::encode`]; returns the map and the number
    /// of `f64`s consumed.
    pub fn decode(data: &[f64]) -> (Ownership, usize) {
        assert!(data.len() >= 2, "ownership snapshot truncated");
        let n = data[0].to_bits() as usize;
        let epoch = data[1].to_bits();
        assert!(data.len() >= 2 + n, "ownership snapshot truncated");
        let owner = data[2..2 + n].iter().map(|v| v.to_bits() as u32).collect();
        (Ownership { owner, epoch }, 2 + n)
    }
}

/// Padding unit in bricks for page-aligned (MemMap) chunks: every chunk
/// boundary must land on a `page_size` boundary given bricks of
/// `brick_bytes`. Panics when the two are incommensurate (non-power-of-
/// two brick sizes).
pub fn pad_bricks_for(page_size: usize, brick_bytes: usize) -> usize {
    if brick_bytes.is_multiple_of(page_size) {
        1
    } else if page_size.is_multiple_of(brick_bytes) {
        page_size / brick_bytes
    } else {
        panic!("brick size {brick_bytes} incommensurate with page size {page_size}")
    }
}

fn band(c: usize, mb: usize, gb: usize) -> Band {
    let ext = mb + 2 * gb;
    if c < gb {
        Band::GhostLow
    } else if c < 2 * gb {
        Band::SurfLow
    } else if c >= ext - gb {
        Band::GhostHigh
    } else if c >= ext - 2 * gb {
        Band::SurfHigh
    } else {
        Band::Mid
    }
}

/// Direction set from bands: `ghost_only` picks only ghost bands (the
/// group key `S`); otherwise ghost and surface bands both contribute
/// (the piece slot / surface region `T`).
fn dir_from<const D: usize>(bands: &[Band; D], ghost_only: bool) -> Dir {
    let mut offsets = [0i8; D];
    for a in 0..D {
        offsets[a] = match bands[a] {
            Band::GhostLow => -1,
            Band::GhostHigh => 1,
            Band::SurfLow if !ghost_only => -1,
            Band::SurfHigh if !ghost_only => 1,
            _ => 0,
        };
    }
    Dir::from_offsets(&offsets)
}

fn lex<const D: usize>(coord: &[usize; D], ext: &[usize; D]) -> usize {
    let mut r = 0usize;
    for a in (0..D).rev() {
        debug_assert!(coord[a] < ext[a]);
        r = r * ext[a] + coord[a];
    }
    r
}

fn unlex<const D: usize>(mut r: usize, ext: &[usize; D]) -> [usize; D] {
    let mut c = [0usize; D];
    for a in 0..D {
        c[a] = r % ext[a];
        r /= ext[a];
    }
    c
}

fn shift<const D: usize>(coord: &[usize; D], trits: &[i8; D], ext: &[usize; D]) -> Option<usize> {
    let mut c = [0usize; D];
    for a in 0..D {
        let p = coord[a] as isize + trits[a] as isize;
        if p < 0 || p >= ext[a] as isize {
            return None;
        }
        c[a] = p as usize;
    }
    Some(lex::<D>(&c, ext))
}

#[cfg(test)]
mod tests {
    use super::*;
    use layout::surface3d;

    fn decomp32() -> BrickDecomp<3> {
        BrickDecomp::layout_mode([32; 3], 8, BrickDims::cubic(8), 1, surface3d())
    }

    #[test]
    fn geometry_counts() {
        let d = decomp32();
        assert_eq!(d.owned_bricks(), [4; 3]);
        assert_eq!(d.ghost_bricks(), [1; 3]);
        assert_eq!(d.grid_extents(), [6; 3]);
        assert_eq!(d.bricks(), 216);
        assert_eq!(d.points(), 32 * 32 * 32);
        // interior 2^3 = 8; surface 4^3 - 2^3 = 56; ghost 6^3 - 4^3 = 152.
        assert_eq!(d.interior().len(), 8);
        let surf: usize = d.surface_chunks().iter().map(|c| c.len()).sum();
        assert_eq!(surf, 56);
        let ghost: usize = d
            .ghost_groups()
            .iter()
            .flat_map(|g| g.pieces.iter())
            .map(|c| c.len())
            .sum();
        assert_eq!(ghost, 152);
    }

    #[test]
    fn region_brick_counts() {
        let d = decomp32();
        let face = Dir::from_spec(&[1]);
        let edge = Dir::from_spec(&[1, -2]);
        let corner = Dir::from_spec(&[1, 2, 3]);
        assert_eq!(d.region_bricks(&face), 2 * 2);
        assert_eq!(d.region_bricks(&edge), 2);
        assert_eq!(d.region_bricks(&corner), 1);
        // Sum over regions = 56.
        let total: usize = all_regions(3).iter().map(|t| d.region_bricks(t)).sum();
        assert_eq!(total, 56);
    }

    #[test]
    fn chunks_are_contiguous_and_cover_everything() {
        let d = decomp32();
        let mut covered = vec![false; d.bricks()];
        let mut mark = |r: Range<usize>| {
            for b in r {
                assert!(!covered[b], "brick {b} in two chunks");
                covered[b] = true;
            }
        };
        mark(d.interior().bricks.clone());
        for c in d.surface_chunks() {
            assert_eq!(c.len(), d.region_bricks(&c.dir));
            mark(c.bricks.clone());
        }
        for g in d.ghost_groups() {
            for p in &g.pieces {
                mark(p.bricks.clone());
            }
        }
        // No filler with pad=1: everything covered.
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn surface_chunks_follow_layout_order() {
        let d = decomp32();
        let order = d.layout().order();
        for (i, c) in d.surface_chunks().iter().enumerate() {
            assert_eq!(c.dir, order[i]);
            if i > 0 {
                assert!(c.bricks.start >= d.surface_chunks()[i - 1].bricks.end);
            }
        }
    }

    #[test]
    fn adjacency_valid() {
        let d = decomp32();
        d.brick_info().validate();
    }

    #[test]
    fn element_offset_roundtrip() {
        let d = decomp32();
        let mut st = d.allocate();
        // Write every extended element a unique value via offsets;
        // no offset may collide.
        let g = d.ghost_width() as isize;
        let n = 32isize;
        let mut seen = std::collections::HashSet::new();
        for z in (-g..n + g).step_by(7) {
            for y in (-g..n + g).step_by(5) {
                for x in -g..n + g {
                    let off = d.element_offset([x, y, z], 0);
                    assert!(seen.insert(off), "offset collision at ({x},{y},{z})");
                    st.as_mut_slice()[off] = 1.0;
                }
            }
        }
    }

    #[test]
    fn ownership_block_distribution_is_balanced() {
        let o = Ownership::block(10, 4);
        // 10 bricks over 4 ranks: 3/2/3/2 in id order, non-decreasing.
        let counts: Vec<usize> = (0..4).map(|r| o.owned_by(r).len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().all(|&c| c == 2 || c == 3));
        for b in 1..10u32 {
            assert!(o.owner_of(b) >= o.owner_of(b - 1));
        }
    }

    #[test]
    fn ownership_mutation_epoch_and_digest() {
        let mut o = Ownership::block(6, 2);
        let d0 = o.digest();
        assert_eq!(o.epoch(), 0);
        o.set_owner(5, 0);
        o.advance_epoch();
        assert_eq!(o.epoch(), 1);
        assert_eq!(o.owned_by(0), vec![0, 1, 2, 5]);
        assert_ne!(o.digest(), d0, "digest must track the owner vector");
    }

    #[test]
    fn ownership_snapshot_roundtrip() {
        let mut o = Ownership::from_owners(vec![1, 0, 1, 2]);
        o.advance_epoch();
        let mut buf = vec![9.0]; // pre-existing content must survive
        o.encode(&mut buf);
        let (d, used) = Ownership::decode(&buf[1..]);
        assert_eq!(used, buf.len() - 1);
        assert_eq!(d, o);
    }

    #[test]
    #[should_panic(expected = "outside the ownership map")]
    fn ownership_rejects_unknown_bricks() {
        Ownership::block(4, 2).owner_of(4);
    }

    #[test]
    fn compute_mask_covers_owned_only() {
        let d = decomp32();
        let computed = d.compute_mask().iter().filter(|&&m| m).count();
        assert_eq!(computed, 64); // 4^3 owned bricks
    }

    /// What the owned-prefix snapshot rests on: everything computed lies
    /// below [`BrickDecomp::owned_elems`], every ghost piece (payload and
    /// filler) at or above it, and the prefix is exactly the interior and
    /// surface chunks with their filler.
    fn assert_owned_prefix<const D: usize>(d: &BrickDecomp<D>, what: &str) {
        let owned = d.owned_elems() / d.step();
        assert_eq!(d.owned_elems() % d.step(), 0, "{what}: prefix ends inside a brick");
        for (b, &computed) in d.compute_mask().iter().enumerate() {
            assert!(!computed || b < owned, "{what}: computed brick {b} outside the prefix of {owned}");
        }
        for p in d.ghost_groups().iter().flat_map(|g| &g.pieces) {
            assert!(p.padded.start >= owned, "{what}: ghost piece {:?} inside the prefix", p.padded);
            assert!(p.bricks.start >= p.padded.start && p.padded.end <= d.bricks());
        }
        let chunks = std::iter::once(d.interior()).chain(d.surface_chunks());
        assert_eq!(owned, chunks.map(Chunk::padded_len).sum::<usize>(), "{what}: prefix length");
    }

    #[test]
    fn owned_bricks_form_a_storage_prefix() {
        use crate::memmap::memmap_decomp;
        use layout::surface2d;
        for fields in [1, 2] {
            let d2 = BrickDecomp::<2>::layout_mode([32; 2], 8, BrickDims::cubic(8), fields, surface2d());
            assert_owned_prefix(&d2, &format!("2-D, {fields} fields"));
            let lex4 = SurfaceLayout::lexicographic(4);
            let d4 = BrickDecomp::<4>::layout_mode([16; 4], 8, BrickDims::cubic(4), fields, lex4);
            assert_owned_prefix(&d4, &format!("4-D, {fields} fields"));
            for n in [16, 32, 64] {
                let d3 = BrickDecomp::<3>::layout_mode([n; 3], 8, BrickDims::cubic(8), fields, surface3d());
                assert_owned_prefix(&d3, &format!("3-D {n}^3, {fields} fields"));
                assert_eq!(d3.owned_elems(), n * n * n * fields, "an unpadded prefix is the owned cells");
                for page in [4096, 16384] {
                    let mm = memmap_decomp([n; 3], 8, BrickDims::cubic(8), fields, surface3d(), page);
                    assert_owned_prefix(&mm, &format!("memmap {n}^3, {fields} fields, page {page}"));
                    assert!(mm.owned_elems() >= d3.owned_elems());
                }
            }
            // Chunk padding coarser than any page of the sweep above.
            let padded = BrickDecomp::<3>::new([32; 3], 8, BrickDims::cubic(8), fields, surface3d(), 16);
            assert_owned_prefix(&padded, &format!("pad 16, {fields} fields"));
            assert!(padded.owned_elems() > 32 * 32 * 32 * fields, "filler is part of the prefix");
        }
    }

    #[test]
    fn padded_mode_inserts_filler() {
        // 8^3 bricks of f64 = 4096 B; with a 64 KiB page, chunks align to
        // 16 bricks.
        let pad = pad_bricks_for(64 << 10, 8 * 8 * 8 * 8);
        assert_eq!(pad, 16);
        let d = BrickDecomp::<3>::new([32; 3], 8, BrickDims::cubic(8), 1, surface3d(), pad);
        for c in d.surface_chunks() {
            assert_eq!(c.padded.start % pad, 0, "chunk must start page-aligned");
            assert_eq!(c.padded.end % pad, 0);
            assert!(c.padded_len() >= c.len());
        }
        assert!(d.bricks() > 216);
        d.brick_info().validate();
    }

    #[test]
    fn pad_unit_math() {
        assert_eq!(pad_bricks_for(4096, 4096), 1);
        assert_eq!(pad_bricks_for(4096, 8192), 1); // brick spans 2 pages
        assert_eq!(pad_bricks_for(16 << 10, 4096), 4);
        assert_eq!(pad_bricks_for(64 << 10, 4096), 16);
        // The paper's example: a 4^3 region of doubles (512 B) fills 1/8
        // of a 4 KiB page.
        assert_eq!(pad_bricks_for(4096, 4 * 4 * 4 * 8), 8);
    }

    #[test]
    #[should_panic(expected = "incommensurate")]
    fn incommensurate_padding_rejected() {
        pad_bricks_for(4096, 3000);
    }

    #[test]
    #[should_panic(expected = "at least two ghost widths")]
    fn too_small_domain_rejected() {
        BrickDecomp::<3>::layout_mode([8; 3], 8, BrickDims::cubic(8), 1, surface3d());
    }

    #[test]
    fn ghost_groups_piece_order_matches_plan() {
        let d = decomp32();
        for g in d.ghost_groups() {
            let pieces = d.layout().recv_pieces(&g.dir);
            assert_eq!(g.pieces.len(), pieces.len());
            for (chunk, piece) in g.pieces.iter().zip(pieces.iter()) {
                assert_eq!(chunk.dir, piece.local_slot);
            }
        }
    }

    /// Small subdomain (16^3 with 8-ghost): middle bands vanish; face
    /// regions are empty but corners survive.
    #[test]
    fn minimal_subdomain() {
        let d = BrickDecomp::<3>::layout_mode([16; 3], 8, BrickDims::cubic(8), 1, surface3d());
        assert_eq!(d.owned_bricks(), [2; 3]);
        assert_eq!(d.interior().len(), 0);
        let face = Dir::from_spec(&[1]);
        let corner = Dir::from_spec(&[1, 2, 3]);
        assert_eq!(d.region_bricks(&face), 0);
        assert_eq!(d.region_bricks(&corner), 1);
        let surf: usize = d.surface_chunks().iter().map(|c| c.len()).sum();
        assert_eq!(surf, 8); // 2^3 owned bricks are all corner-surface
        d.brick_info().validate();
    }

    #[test]
    fn two_fields_change_step() {
        let d = BrickDecomp::<3>::new([32; 3], 8, BrickDims::cubic(8), 2, surface3d(), 1);
        assert_eq!(d.step(), 1024);
        let st = d.allocate();
        assert_eq!(st.fields(), 2);
    }
}
