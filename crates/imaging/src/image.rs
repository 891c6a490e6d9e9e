//! Owned raster image types.
//!
//! Two pixel layouts cover every consumer in the workspace:
//!
//! * [`RgbImage`] — interleaved 8-bit RGB, what the synthetic generator
//!   renders and what color-moment extraction reads.
//! * [`GrayImage`] — `f32` luminance in `[0, 1]`, the working format for
//!   convolution, Canny, and the wavelet transform.

/// An 8-bit interleaved RGB image.
///
/// Pixels are stored row-major; `(x, y)` addresses column `x` of row `y`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RgbImage {
    width: usize,
    height: usize,
    data: Vec<[u8; 3]>,
}

impl RgbImage {
    /// Creates an image filled with a constant color.
    ///
    /// # Panics
    /// Panics if `width == 0` or `height == 0`.
    pub fn filled(width: usize, height: usize, color: [u8; 3]) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        Self {
            width,
            height,
            data: vec![color; width * height],
        }
    }

    /// Creates a black image.
    pub fn new(width: usize, height: usize) -> Self {
        Self::filled(width, height, [0, 0, 0])
    }

    /// Image width in pixels.
    #[inline]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the image has no pixels (never true for constructed images).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub(crate) fn get(&self, x: usize, y: usize) -> [u8; 3] {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, color: [u8; 3]) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = color;
    }

    /// Sets the pixel only when `(x, y)` is inside the image; silently
    /// ignores out-of-bounds writes (useful for shape rasterization).
    #[inline]
    pub(crate) fn set_clipped(&mut self, x: isize, y: isize, color: [u8; 3]) {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            self.data[y as usize * self.width + x as usize] = color;
        }
    }

    /// Immutable access to the raw pixel slice (row-major).
    #[inline]
    pub fn pixels(&self) -> &[[u8; 3]] {
        &self.data
    }

    /// Mutable access to the raw pixel slice (row-major).
    #[inline]
    pub(crate) fn pixels_mut(&mut self) -> &mut [[u8; 3]] {
        &mut self.data
    }

    /// Converts to a luminance image using the Rec. 601 weights
    /// (0.299 R + 0.587 G + 0.114 B), scaled to `[0, 1]`.
    pub fn to_gray(&self) -> GrayImage {
        let data = self
            .data
            .iter()
            .map(|&[r, g, b]| {
                (0.299 * f32::from(r) + 0.587 * f32::from(g) + 0.114 * f32::from(b)) / 255.0
            })
            .collect();
        GrayImage {
            width: self.width,
            height: self.height,
            data,
        }
    }

    /// Serializes to binary PPM (`P6`), the simplest portable image format;
    /// used by examples to emit viewable sample images without an image
    /// codec dependency.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.reserve(self.data.len() * 3);
        for px in &self.data {
            out.extend_from_slice(px);
        }
        out
    }
}

/// A single-channel `f32` image with values nominally in `[0, 1]`.
///
/// Intermediate processing results (gradients, wavelet coefficients) may
/// exceed the nominal range; no clamping is applied except where documented.
#[derive(Clone, Debug, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// Creates an image filled with a constant intensity.
    ///
    /// # Panics
    /// Panics if `width == 0` or `height == 0`.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        Self {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates an all-zero (black) image.
    pub fn new(width: usize, height: usize) -> Self {
        Self::filled(width, height, 0.0)
    }

    /// Builds an image from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != width * height` or either dimension is zero.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        assert_eq!(
            data.len(),
            width * height,
            "buffer length must match dimensions"
        );
        Self {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    #[inline]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// Returns the intensity at `(x, y)`.
    #[inline]
    pub(crate) fn get(&self, x: usize, y: usize) -> f32 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Returns the intensity at `(x, y)`, clamping coordinates to the edge
    /// (replicate-padding semantics for filters).
    #[inline]
    pub(crate) fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Sets the intensity at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = value;
    }

    /// Immutable access to the raw buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Copies one row into `row` (which must have length `width`).
    pub(crate) fn read_row(&self, y: usize, row: &mut [f32]) {
        assert_eq!(row.len(), self.width);
        row.copy_from_slice(&self.data[y * self.width..(y + 1) * self.width]);
    }

    /// Copies one column into `col` (which must have length `height`).
    pub(crate) fn read_col(&self, x: usize, col: &mut [f32]) {
        assert_eq!(col.len(), self.height);
        for (y, c) in col.iter_mut().enumerate() {
            *c = self.data[y * self.width + x];
        }
    }

    /// Overwrites one row from `row`.
    pub(crate) fn write_row(&mut self, y: usize, row: &[f32]) {
        assert_eq!(row.len(), self.width);
        self.data[y * self.width..(y + 1) * self.width].copy_from_slice(row);
    }

    /// Overwrites one column from `col`.
    pub(crate) fn write_col(&mut self, x: usize, col: &[f32]) {
        assert_eq!(col.len(), self.height);
        for (y, &c) in col.iter().enumerate() {
            self.data[y * self.width + x] = c;
        }
    }

    /// Extracts the `w × h` sub-image whose top-left corner is `(x0, y0)`.
    ///
    /// # Panics
    /// Panics if the rectangle does not fit inside the image.
    pub(crate) fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> GrayImage {
        assert!(
            x0 + w <= self.width && y0 + h <= self.height,
            "crop out of bounds"
        );
        let mut out = GrayImage::new(w, h);
        for y in 0..h {
            let src = &self.data[(y0 + y) * self.width + x0..(y0 + y) * self.width + x0 + w];
            out.data[y * w..(y + 1) * w].copy_from_slice(src);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GrayImage {
        /// Sum of squared intensities; the wavelet tests use this to check
        /// orthonormal energy preservation.
        pub(crate) fn energy(&self) -> f64 {
            self.data.iter().map(|&v| f64::from(v) * f64::from(v)).sum()
        }
    }

    #[test]
    fn rgb_filled_and_get_set() {
        let mut img = RgbImage::filled(4, 3, [1, 2, 3]);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.len(), 12);
        assert_eq!(img.get(3, 2), [1, 2, 3]);
        img.set(0, 0, [9, 9, 9]);
        assert_eq!(img.get(0, 0), [9, 9, 9]);
        assert_eq!(img.get(1, 0), [1, 2, 3]);
    }

    #[test]
    fn rgb_set_clipped_ignores_out_of_bounds() {
        let mut img = RgbImage::new(2, 2);
        img.set_clipped(-1, 0, [255, 0, 0]);
        img.set_clipped(0, 5, [255, 0, 0]);
        img.set_clipped(1, 1, [255, 0, 0]);
        assert_eq!(img.get(1, 1), [255, 0, 0]);
        assert_eq!(img.get(0, 0), [0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn rgb_zero_dimension_panics() {
        let _ = RgbImage::new(0, 4);
    }

    #[test]
    fn gray_conversion_weights() {
        // Pure white maps to 1.0, pure black to 0.0, and the Rec.601 weights
        // order G > R > B.
        let white = RgbImage::filled(1, 1, [255, 255, 255]).to_gray();
        assert!((white.get(0, 0) - 1.0).abs() < 1e-6);
        let black = RgbImage::filled(1, 1, [0, 0, 0]).to_gray();
        assert_eq!(black.get(0, 0), 0.0);
        let r = RgbImage::filled(1, 1, [255, 0, 0]).to_gray().get(0, 0);
        let g = RgbImage::filled(1, 1, [0, 255, 0]).to_gray().get(0, 0);
        let b = RgbImage::filled(1, 1, [0, 0, 255]).to_gray().get(0, 0);
        assert!(g > r && r > b);
        assert!((r + g + b - 1.0).abs() < 1e-5);
    }

    #[test]
    fn ppm_header_and_payload() {
        let img = RgbImage::filled(2, 1, [10, 20, 30]);
        let ppm = img.to_ppm();
        let header = b"P6\n2 1\n255\n";
        assert_eq!(&ppm[..header.len()], header);
        assert_eq!(&ppm[header.len()..], &[10, 20, 30, 10, 20, 30]);
    }

    #[test]
    fn gray_clamped_access() {
        let img = GrayImage::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(img.get_clamped(-5, -5), 1.0);
        assert_eq!(img.get_clamped(10, 10), 4.0);
        assert_eq!(img.get_clamped(1, 0), 2.0);
    }

    #[test]
    fn gray_row_col_roundtrip() {
        let mut img = GrayImage::new(3, 2);
        img.write_row(1, &[1.0, 2.0, 3.0]);
        let mut row = [0.0; 3];
        img.read_row(1, &mut row);
        assert_eq!(row, [1.0, 2.0, 3.0]);

        img.write_col(2, &[7.0, 8.0]);
        let mut col = [0.0; 2];
        img.read_col(2, &mut col);
        assert_eq!(col, [7.0, 8.0]);
        // writing the column must not clobber unrelated cells
        assert_eq!(img.get(0, 1), 1.0);
    }

    #[test]
    fn gray_crop_extracts_expected_window() {
        let img = GrayImage::from_vec(4, 4, (0..16).map(|v| v as f32).collect());
        let sub = img.crop(1, 2, 2, 2);
        assert_eq!(sub.as_slice(), &[9.0, 10.0, 13.0, 14.0]);
    }

    #[test]
    #[should_panic(expected = "crop out of bounds")]
    fn gray_crop_out_of_bounds_panics() {
        let img = GrayImage::new(4, 4);
        let _ = img.crop(3, 3, 2, 2);
    }

    #[test]
    fn gray_energy_sums_squares() {
        let img = GrayImage::from_vec(2, 1, vec![3.0, 4.0]);
        assert!((img.energy() - 25.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn gray_from_vec_length_mismatch_panics() {
        let _ = GrayImage::from_vec(2, 2, vec![0.0; 3]);
    }
}
