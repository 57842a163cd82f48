(** Pixel-level image comparison metrics.

    The paper contrasts its histogram-based validation with the
    "pixel level difference" metrics of related work (QABS optimises
    PSNR). Both families are provided so the baselines can be compared
    on their own terms. *)

val mse : Raster.t -> Raster.t -> float
(** [mse a b] is the mean squared error over all channels of all
    pixels. Dimensions must match. *)

val psnr : Raster.t -> Raster.t -> float
(** [psnr a b] is the peak signal-to-noise ratio in dB (peak 255).
    Identical images give [infinity]. Dimensions must match. *)

val psnr_of_squared_error : samples:int -> int -> float
(** [psnr_of_squared_error ~samples sse] is the PSNR of a comparison
    whose squared channel differences sum to [sse] over [samples]
    channel samples: [psnr a b] is
    [psnr_of_squared_error ~samples:(3 * pixel_count a) sse] with the
    same float arithmetic, so a kernel that sums the same integers
    without building the rasters gets the same double. *)

val mean_absolute_error : Raster.t -> Raster.t -> float
(** [mean_absolute_error a b] is the mean per-channel absolute
    difference. Dimensions must match. *)

val max_absolute_error : Raster.t -> Raster.t -> int
(** [max_absolute_error a b] is the largest per-channel absolute
    difference. Dimensions must match. *)

val ssim : Raster.t -> Raster.t -> float
(** [ssim a b] is the mean structural similarity index over the
    luminance planes (Wang et al.), computed on 8x8 windows with
    stride 4 and the standard stabilisers [C1 = (0.01*255)^2],
    [C2 = (0.03*255)^2]. 1.0 means structurally identical; typical
    visible degradation lands below ~0.9. Dimensions must match and be
    at least 8x8. *)
