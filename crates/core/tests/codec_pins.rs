//! Bitwise pins of the checkpoint codec (PR 18): they fail if one byte of
//! the on-disk format or one bit of the checksum moves.
//!
//! 1. **Sliced CRC == bytewise CRC.** The incremental slice-by-8
//!    [`Crc64`], fed random data in random pieces, equals the
//!    byte-at-a-time reference loop and the published check value.
//! 2. **Streamed file == encoded buffer.** The file `write` / `write_nd`
//!    land — header, payload and trailer streamed separately — is byte for
//!    byte what `encode` / `encode_nd` build in one buffer, so
//!    `CorruptKind::BitFlip { offset }` strikes, `restart_props.rs` and
//!    the chaos `corrupt:` grammar keep addressing the same bytes.

use ftsg_core::checkpoint::{crc64, crc64_bytewise, Crc64};
use ftsg_core::config::default_ckpt_dir;
use ftsg_core::CheckpointStore;
use proptest::prelude::*;
use sparsegrid::{Grid2, GridN, LevelPair};

/// The bytes of the checkpoint file `store` landed for `(grid_id, step)`.
fn landed(store: &CheckpointStore, grid_id: usize, step: u64) -> Vec<u8> {
    let path = store.dir().join(format!("grid_{grid_id:04}.s{step:012}.ckpt"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn crc_check_value_holds_for_every_form() {
    const CHECK: u64 = 0x995D_C9BB_DF19_39FA;
    assert_eq!(crc64(b"123456789"), CHECK);
    assert_eq!(crc64_bytewise(b"123456789"), CHECK);
    // Split inside the one 8-byte word the input holds.
    for cut in 0..=9 {
        let mut crc = Crc64::new();
        crc.update(&b"123456789"[..cut]);
        crc.update(&b"123456789"[cut..]);
        assert_eq!(crc.finish(), CHECK, "cut at {cut}");
    }
    assert_eq!(Crc64::new().finish(), 0);
    assert_eq!((crc64(b""), crc64_bytewise(b"")), (0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lengths 0..=4100 cross every residue mod 8 and the 4 KiB mark;
    /// the cuts land anywhere, so every piece starts at an arbitrary
    /// phase of the 8-byte stride (and some are empty).
    #[test]
    fn sliced_crc_equals_bytewise_at_any_split(
        data in proptest::collection::vec(any::<u8>(), 0..=4100),
        cuts in proptest::collection::vec(any::<u32>(), 0..6),
    ) {
        let want = crc64_bytewise(&data);
        prop_assert_eq!(crc64(&data), want);
        let mut at: Vec<usize> =
            cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
        at.sort_unstable();
        let mut crc = Crc64::new();
        let mut from = 0;
        for &to in at.iter().chain(std::iter::once(&data.len())) {
            crc.update(&data[from..to]);
            from = to;
        }
        prop_assert_eq!(crc.finish(), want);
    }
}

#[test]
fn streamed_v2_file_is_byte_equal_to_encode() {
    let store = CheckpointStore::new(default_ckpt_dir()).unwrap();
    // Ragged levels: level-0 axes (two nodes), odd payload counts, and a
    // payload past the 512-value chunk of the big-endian path.
    for (k, (i, j)) in [(0, 0), (0, 3), (1, 1), (4, 3), (2, 5), (6, 5)].into_iter().enumerate() {
        let level = LevelPair::new(i, j);
        let grid = Grid2::from_fn(level, |x, y| (7.0 * x).sin() - 3.0 * y + f64::EPSILON);
        let step = 1000 + k as u64;
        let wrote = store.write(k, step, &grid).unwrap();
        let file = landed(&store, k, step);
        assert_eq!(file.len(), wrote, "level {level}");
        assert_eq!(file, CheckpointStore::encode(step, level, grid.values()), "level {level}");
        // And it is the file the reader accepts.
        let (restored, skipped) = store.read_latest_valid(k).unwrap();
        let (got_step, back, bytes) = restored.expect("just written");
        assert_eq!((got_step, bytes, skipped), (step, wrote, 0));
        assert_eq!(back, grid);
    }
    store.clear().unwrap();
    std::fs::remove_dir(store.dir()).unwrap();
}

#[test]
fn streamed_v3_file_is_byte_equal_to_encode_nd() {
    let store = CheckpointStore::new(default_ckpt_dir()).unwrap();
    let levels: [&[u32]; 6] =
        [&[3, 2], &[0, 4], &[2, 1, 3], &[0, 0, 0], &[1, 2, 0, 3], &[3, 1, 2, 2]];
    for (k, level) in levels.into_iter().enumerate() {
        let grid = GridN::from_fn(level, |x| {
            x.iter().enumerate().map(|(a, &v)| (a as f64 + 1.5) * v).sum::<f64>().cos()
        });
        let step = u64::MAX - k as u64; // the widest step stamp
        let wrote = store.write_nd(k, step, &grid).unwrap();
        let file = landed(&store, k, step);
        assert_eq!(file.len(), wrote, "level {level:?}");
        assert_eq!(file, CheckpointStore::encode_nd(step, level, grid.values()), "level {level:?}");
        let mut back = GridN::zeros(&[0]);
        let (restored, skipped) = store.read_latest_valid_nd_into(k, &mut back).unwrap();
        let (got_step, _) = restored.expect("just written");
        assert_eq!((got_step, skipped), (step, 0));
        assert_eq!(back, grid);
    }
    store.clear().unwrap();
    std::fs::remove_dir(store.dir()).unwrap();
}
