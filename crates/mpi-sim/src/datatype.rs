//! Typed message payloads.
//!
//! MPI transfers raw buffers described by datatypes; we keep the same spirit
//! with a small [`MpiData`] trait that fixes a little-endian wire encoding,
//! so payloads are plain byte buffers inside the runtime — uniquely owned,
//! pooled [`bytes::BytesMut`]s for messages and collective contributions
//! alike — and typed slices at the API boundary. Decoding reads any
//! `&[u8]`, so whole buffers and sub-ranges of them (see [`WireSlice`])
//! decode through the same functions.

use std::marker::PhantomData;

use bytes::{Bytes, BytesMut};

use crate::error::{Error, Result};

/// A plain-old-data element with a fixed-size little-endian encoding.
///
/// Implemented for the numeric types the solver and the recovery protocols
/// need. The encoding is explicit (not `transmute`) so messages are
/// deterministic and architecture-independent.
pub trait MpiData: Copy + Send + Sync + 'static {
    /// Encoded size in bytes of one element.
    const WIDTH: usize;
    /// Append the little-endian encoding of `self` to `out`.
    fn put(&self, out: &mut BytesMut);
    /// Decode one element from exactly `Self::WIDTH` bytes.
    fn get(raw: &[u8]) -> Self;

    /// The slice's own bytes, when they *are* its wire encoding: the
    /// primitive numeric types on a little-endian target, where the
    /// little-endian wire format equals the in-memory layout. `None`
    /// otherwise — the caller then encodes element by element.
    ///
    /// Besides [`put_slice`](MpiData::put_slice), this is what lets a
    /// writer stream a large typed buffer (a checkpoint payload) without
    /// first materializing its encoding.
    #[inline]
    fn as_wire(data: &[Self]) -> Option<&[u8]> {
        let _ = data;
        None
    }

    /// Append the encoding of a whole slice to `out`: one `memcpy` where
    /// [`as_wire`](MpiData::as_wire) applies, else a loop over
    /// [`put`](MpiData::put).
    #[inline]
    fn put_slice(data: &[Self], out: &mut BytesMut) {
        match Self::as_wire(data) {
            Some(bytes) => out.extend_from_slice(bytes),
            None => {
                out.reserve(data.len() * Self::WIDTH);
                for v in data {
                    v.put(out);
                }
            }
        }
    }

    /// Decode a whole buffer, appending the elements to `out`. `raw` must
    /// be a multiple of `Self::WIDTH` long (checked by the callers).
    ///
    /// Same bulk-copy override story as [`put_slice`](MpiData::put_slice).
    #[inline]
    fn extend_from_raw(raw: &[u8], out: &mut Vec<Self>) {
        debug_assert!(raw.len().is_multiple_of(Self::WIDTH));
        let n = raw.len() / Self::WIDTH;
        out.reserve(n);
        for i in 0..n {
            out.push(Self::get(&raw[i * Self::WIDTH..]));
        }
    }

    /// Decode exactly `out.len()` elements from `raw` over `out`. `raw`
    /// must be `out.len() * Self::WIDTH` bytes long (checked by the
    /// callers). The same bulk-copy override story again: this is what
    /// lets a receiver assemble straight from wire bytes into the array
    /// it computes on.
    #[inline]
    fn copy_from_raw(raw: &[u8], out: &mut [Self]) {
        debug_assert_eq!(raw.len(), out.len() * Self::WIDTH);
        for (i, v) in out.iter_mut().enumerate() {
            *v = Self::get(&raw[i * Self::WIDTH..]);
        }
    }
}

macro_rules! impl_mpi_data {
    ($($t:ty),*) => {$(
        impl MpiData for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, out: &mut BytesMut) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(raw: &[u8]) -> Self {
                let mut buf = [0u8; std::mem::size_of::<$t>()];
                buf.copy_from_slice(&raw[..Self::WIDTH]);
                <$t>::from_le_bytes(buf)
            }
            #[cfg(target_endian = "little")]
            #[inline]
            fn as_wire(data: &[Self]) -> Option<&[u8]> {
                // SAFETY: `data` is an initialized slice of a
                // plain-old-data numeric type without padding, so its
                // `size_of_val` bytes are initialized and readable for
                // the lifetime of the borrow; `u8` has no alignment
                // requirement. On little-endian targets those bytes are
                // exactly the LE wire format. (The big-endian fallback is
                // the default `None`.)
                Some(unsafe {
                    std::slice::from_raw_parts(
                        data.as_ptr() as *const u8,
                        std::mem::size_of_val(data),
                    )
                })
            }
            #[cfg(target_endian = "little")]
            #[inline]
            fn extend_from_raw(raw: &[u8], out: &mut Vec<Self>) {
                debug_assert!(raw.len().is_multiple_of(Self::WIDTH));
                let n = raw.len() / Self::WIDTH;
                let old = out.len();
                out.reserve(n);
                // Fill the reserved tail bytewise, then commit the new
                // length; no `&[Self]` view of uninitialized memory is
                // ever formed.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        raw.as_ptr(),
                        out.as_mut_ptr().add(old) as *mut u8,
                        n * Self::WIDTH,
                    );
                    out.set_len(old + n);
                }
            }
            #[cfg(target_endian = "little")]
            #[inline]
            fn copy_from_raw(raw: &[u8], out: &mut [Self]) {
                assert_eq!(raw.len(), std::mem::size_of_val(out), "wire/typed length mismatch");
                // SAFETY: `out` is an exclusive, initialized slice of a
                // plain-old-data numeric type for which every bit pattern
                // is a valid value; the assert above makes the byte counts
                // equal, and `raw` (shared) cannot overlap `out`
                // (exclusive). On little-endian targets the wire format is
                // the in-memory layout, so the copy is the decode.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        raw.as_ptr(),
                        out.as_mut_ptr() as *mut u8,
                        raw.len(),
                    );
                }
            }
        }
    )*};
}

impl_mpi_data!(f64, f32, i64, u64, i32, u32, u8, i8, u16, i16);

impl MpiData for bool {
    const WIDTH: usize = 1;
    #[inline]
    fn put(&self, out: &mut BytesMut) {
        out.extend_from_slice(&[*self as u8]);
    }
    #[inline]
    fn get(raw: &[u8]) -> Self {
        raw[0] != 0
    }
}

/// `usize` is encoded as `u64` so 32- and 64-bit builds interoperate.
impl MpiData for usize {
    const WIDTH: usize = 8;
    #[inline]
    fn put(&self, out: &mut BytesMut) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    #[inline]
    fn get(raw: &[u8]) -> Self {
        u64::get(raw) as usize
    }
}

/// Encode a typed slice into a frozen byte buffer.
pub fn encode<T: MpiData>(data: &[T]) -> Bytes {
    let mut out = BytesMut::with_capacity(data.len() * T::WIDTH);
    T::put_slice(data, &mut out);
    out.freeze()
}

/// Encode a typed slice into a reused buffer (cleared first). With a
/// pooled `BytesMut` this makes a send exactly one copy: slice → wire
/// buffer.
pub fn encode_into<T: MpiData>(data: &[T], out: &mut BytesMut) {
    out.clear();
    out.reserve(data.len() * T::WIDTH);
    T::put_slice(data, out);
}

/// Decode a byte buffer into a typed vector.
///
/// Errors if the buffer length is not a multiple of the element width —
/// which, like a datatype mismatch in MPI, indicates a protocol bug.
pub fn decode<T: MpiData>(raw: &[u8]) -> Result<Vec<T>> {
    check_width::<T>(raw.len())?;
    let mut out = Vec::with_capacity(raw.len() / T::WIDTH);
    T::extend_from_raw(raw, &mut out);
    Ok(out)
}

/// Decode a byte buffer into a reused vector (cleared first), avoiding
/// the per-receive allocation of [`decode`].
pub fn decode_into<T: MpiData>(raw: &[u8], out: &mut Vec<T>) -> Result<()> {
    check_width::<T>(raw.len())?;
    out.clear();
    T::extend_from_raw(raw, out);
    Ok(())
}

fn check_width<T: MpiData>(len: usize) -> Result<()> {
    if !len.is_multiple_of(T::WIDTH) {
        return Err(Error::InvalidArg(format!(
            "payload of {len} bytes is not a multiple of element width {}",
            T::WIDTH
        )));
    }
    Ok(())
}

/// A typed, read-only view of wire bytes: [`len`](WireSlice::len)
/// elements of `T` that have not been decoded yet. The root of a gather
/// reads each contribution through one (see
/// [`Gathered`](crate::comm::Gathered)) and decodes the ranges it wants
/// straight into place, so no intermediate `Vec<T>` exists.
#[derive(Debug, Clone, Copy)]
pub struct WireSlice<'a, T: MpiData> {
    raw: &'a [u8],
    _elem: PhantomData<T>,
}

impl<'a, T: MpiData> WireSlice<'a, T> {
    /// View `raw` as elements of `T`; the same width check (and error)
    /// as [`decode`].
    pub fn new(raw: &'a [u8]) -> Result<Self> {
        check_width::<T>(raw.len())?;
        Ok(WireSlice { raw, _elem: PhantomData })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.raw.len() / T::WIDTH
    }

    /// True when the view holds no element.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Decode elements `start .. start + out.len()` over `out`. Panics
    /// when the range runs past the view, like slice indexing.
    pub fn copy_to(&self, start: usize, out: &mut [T]) {
        T::copy_from_raw(&self.raw[start * T::WIDTH..(start + out.len()) * T::WIDTH], out);
    }

    /// An [`Error::InvalidArg`] unless the view holds exactly `n`
    /// elements: the check a reader makes before it writes anything.
    pub fn expect_len(&self, n: usize) -> Result<()> {
        if self.len() != n {
            return Err(Error::InvalidArg(format!(
                "payload of {} bytes for {n} elements of width {}",
                self.raw.len(),
                T::WIDTH
            )));
        }
        Ok(())
    }

    /// Decode the whole view over `out`, which must be exactly as long
    /// ([`expect_len`](Self::expect_len)'s error otherwise, and `out`
    /// untouched) — MPI's receive into the array one computes on.
    pub fn read_onto(&self, out: &mut [T]) -> Result<()> {
        self.expect_len(out.len())?;
        T::copy_from_raw(self.raw, out);
        Ok(())
    }

    /// Decode the whole view into a reused vector (cleared first).
    pub fn read_into(&self, out: &mut Vec<T>) {
        out.clear();
        T::extend_from_raw(self.raw, out);
    }

    /// The elements in order, each decoded as it is read: for a reader
    /// that scatters them (a strided column) or folds them into values
    /// it holds (a sum), so no decoded copy exists.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = T> + '_ {
        self.raw.chunks_exact(T::WIDTH).map(T::get)
    }

    /// Decode the whole view into a fresh vector.
    pub fn to_vec(&self) -> Vec<T> {
        decode(self.raw).expect("the width was checked at construction")
    }
}

/// Decode exactly one element.
pub fn decode_one<T: MpiData>(raw: &[u8]) -> Result<T> {
    let v = decode::<T>(raw)?;
    if v.len() != 1 {
        return Err(Error::InvalidArg(format!("expected exactly 1 element, got {}", v.len())));
    }
    Ok(v[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        let xs = [0.0f64, -1.5, std::f64::consts::PI, f64::MAX, f64::MIN_POSITIVE];
        let enc = encode(&xs);
        assert_eq!(enc.len(), xs.len() * 8);
        let dec: Vec<f64> = decode(&enc).unwrap();
        assert_eq!(dec, xs);
    }

    #[test]
    fn roundtrip_mixed_ints() {
        let a = [usize::MAX, 0, 42];
        let dec: Vec<usize> = decode(&encode(&a)).unwrap();
        assert_eq!(dec, a);

        let b = [i32::MIN, -1, 7];
        let dec: Vec<i32> = decode(&encode(&b)).unwrap();
        assert_eq!(dec, b);

        let c = [true, false, true];
        let dec: Vec<bool> = decode(&encode(&c)).unwrap();
        assert_eq!(dec, c);
    }

    #[test]
    fn decode_rejects_misaligned_buffer() {
        let enc = encode(&[1.0f64]);
        let truncated = enc.slice(0..7);
        assert!(decode::<f64>(&truncated).is_err());
    }

    #[test]
    fn decode_one_rejects_wrong_count() {
        let enc = encode(&[1u64, 2u64]);
        assert!(decode_one::<u64>(&enc).is_err());
        let enc1 = encode(&[9u64]);
        assert_eq!(decode_one::<u64>(&enc1).unwrap(), 9);
    }

    #[test]
    fn nan_payload_roundtrips_bitwise() {
        let xs = [f64::NAN];
        let dec: Vec<f64> = decode(&encode(&xs)).unwrap();
        assert!(dec[0].is_nan());
    }

    #[test]
    fn bulk_encode_equals_per_element_encode() {
        // The memcpy fast path must produce byte-for-byte the same wire
        // format as the per-element LE encoding.
        let xs: Vec<f64> =
            (0..257).map(|i| (i as f64).sqrt() * if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let bulk = encode(&xs);
        let mut per_elem = BytesMut::with_capacity(xs.len() * 8);
        for v in &xs {
            v.put(&mut per_elem);
        }
        assert_eq!(&bulk[..], &per_elem.freeze()[..]);
    }

    #[test]
    fn encode_into_reuses_and_matches() {
        let xs = [1.5f64, -2.25, 1e300];
        let mut buf = BytesMut::with_capacity(64);
        encode_into(&xs, &mut buf);
        assert_eq!(&buf[..], &encode(&xs)[..]);
        // Reuse with different contents: cleared, not appended.
        let ys = [9.0f64];
        encode_into(&ys, &mut buf);
        assert_eq!(buf.len(), 8);
        assert_eq!(&buf[..], &encode(&ys)[..]);
    }

    #[test]
    fn decode_into_reuses_and_matches() {
        let xs: Vec<f64> = (0..100).map(|i| f64::from_bits(0x7ff8_0000_0000_0000 | i)).collect();
        let enc = encode(&xs);
        let mut out: Vec<f64> = vec![0.0; 3]; // stale contents must vanish
        decode_into(&enc, &mut out).unwrap();
        assert_eq!(out.len(), xs.len());
        for (a, b) in out.iter().zip(&xs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Misaligned buffers still rejected.
        assert!(decode_into::<f64>(&enc.slice(0..9), &mut out).is_err());
    }

    #[test]
    fn wire_slice_decodes_ranges_in_place() {
        let xs: Vec<f64> = (0..37).map(|i| f64::from_bits(0x7ff8_0000_0000_0000 | i)).collect();
        let enc = encode(&xs);
        let view = WireSlice::<f64>::new(&enc).unwrap();
        assert_eq!((view.len(), view.is_empty()), (37, false));
        // A ragged interior range lands bit for bit, neighbours untouched.
        let mut out = [1.0f64; 9];
        view.copy_to(5, &mut out[2..7]);
        for (k, v) in out.iter().enumerate() {
            let want = if (2..7).contains(&k) { xs[5 + k - 2].to_bits() } else { 1.0f64.to_bits() };
            assert_eq!(v.to_bits(), want, "slot {k}");
        }
        let back = view.to_vec();
        assert!(back.iter().zip(&xs).all(|(a, b)| a.to_bits() == b.to_bits()));
        // Non-memcpy element types go through the per-element default.
        let flags = [true, false, true, true];
        let enc = encode(&flags);
        let mut got = [false; 2];
        WireSlice::<bool>::new(&enc).unwrap().copy_to(2, &mut got);
        assert_eq!(got, [true, true]);
        // The width check is `decode`'s.
        let err = WireSlice::<f64>::new(&enc).unwrap_err();
        assert_eq!(err.to_string(), decode::<f64>(&enc).unwrap_err().to_string());
    }

    #[test]
    fn wire_slice_reads_whole_views_onto_into_and_element_by_element() {
        let xs: Vec<f64> = (0..5).map(|i| f64::from_bits(0x7ff8_0000_0000_0000 | i)).collect();
        let enc = encode(&xs);
        let view = WireSlice::<f64>::new(&enc).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut onto = [0.0f64; 5];
        view.read_onto(&mut onto).unwrap();
        assert_eq!(bits(&onto), bits(&xs));
        // Any other length is an error and writes nothing.
        let mut short = [7.0f64; 4];
        assert!(matches!(view.read_onto(&mut short), Err(Error::InvalidArg(_))));
        assert_eq!(short, [7.0; 4]);
        let mut into = vec![1.0f64; 9];
        view.read_into(&mut into);
        assert_eq!(bits(&into), bits(&xs));
        let iter = view.iter();
        assert_eq!(iter.len(), 5);
        assert_eq!(bits(&iter.collect::<Vec<_>>()), bits(&xs));
    }

    #[test]
    fn bulk_decode_handles_sub_slices() {
        // Bytes::slice produces offset views; the bulk copy must respect
        // the view's bounds.
        let xs = [10.0f64, 20.0, 30.0];
        let enc = encode(&xs);
        let mid = enc.slice(8..16);
        let dec: Vec<f64> = decode(&mid).unwrap();
        assert_eq!(dec, [20.0]);
    }
}
