"""Parse, validate, and re-serialize PE binaries.

The model is deliberately shallow but lossless: every byte of an accepted
file lives either in a named structure (DOS region, COFF header, optional
header, section table, section raw data, overlay) or in a recorded gap, so
``serialize(parse(data)) == data`` holds byte-for-byte. Directory graphs
(imports/exports/resources) are carried opaquely inside section data.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from .records import Record

DOS_MAGIC = b"MZ"
PE_SIGNATURE = b"PE\x00\x00"
E_LFANEW_OFFSET = 0x3C
DOS_HEADER_SIZE = 64
# machine, section count, then the CoffHeader fields from timestamp on
_COFF = struct.Struct("<HHIIIHH")
# the SectionEntry fields before raw_data, in order
_SECTION_ROW = struct.Struct("<8sIIIIIIHHI")
COFF_SIZE = _COFF.size
SECTION_ENTRY_SIZE = _SECTION_ROW.size

PE32_MAGIC = 0x10B
PE32PLUS_MAGIC = 0x20B

DIR_SECURITY = 4
DIR_DEBUG = 6

MAX_FILE_SIZE = 2 * 1024 * 1024 * 1024  # larger inputs are rejected as oversize

# rejection codes used by ValidationReport
BAD_MZ = "bad-mz"
BAD_PE_SIG = "bad-pe-sig"
TRUNCATED = "truncated"
OVERLAPPING_SECTIONS = "overlapping-sections"
OVERSIZE = "oversize"

U32_MAX = 0xFFFFFFFF
U16_MAX = 0xFFFF


class PeError(Exception):
    """Base class for structural PE failures; a parse failure's first
    argument is its rejection code."""


class Truncated(PeError):
    pass


class BadSignature(PeError):
    pass


class OverlappingSections(PeError):
    pass


class Oversize(PeError):
    pass


class LayoutOverflow(PeError):
    """Raised by the serializer when contents exceed addressable layout."""


@dataclass(frozen=True)
class SectionEntry:
    """One row of the section table plus its raw file contents.

    ``raw_size`` is kept explicitly: sections with a zero data pointer may
    declare a nonzero size that must survive re-serialization verbatim.
    """

    name: bytes  # 8 bytes, NUL padded
    virtual_size: int
    virtual_address: int
    raw_size: int
    raw_offset: int
    reloc_offset: int
    linenum_offset: int
    reloc_count: int
    linenum_count: int
    characteristics: int
    raw_data: bytes

    @property
    def display_name(self) -> str:
        return self.name.rstrip(b"\x00").decode("ascii", errors="replace")

    @property
    def file_end(self) -> int:
        if self.raw_offset == 0 or self.raw_size == 0:
            return 0
        return self.raw_offset + self.raw_size

    def pack_header(self) -> bytes:
        return _SECTION_ROW.pack(
            self.name, self.virtual_size, self.virtual_address,
            self.raw_size, self.raw_offset, self.reloc_offset,
            self.linenum_offset, self.reloc_count, self.linenum_count,
            self.characteristics)


class OptionalHeader:
    """Raw optional header with named accessors at fixed offsets.

    Only fields the pipeline reads or rewrites get accessors; everything
    else rides along untouched in ``raw``.
    """

    def __init__(self, raw: bytes):
        self.raw = bytearray(raw)

    def _u8(self, off: int) -> int:
        return self.raw[off]

    def _u16(self, off: int) -> int:
        return struct.unpack_from("<H", self.raw, off)[0]

    def _u32(self, off: int) -> int:
        return struct.unpack_from("<I", self.raw, off)[0]

    def _put_u32(self, off: int, value: int) -> None:
        struct.pack_into("<I", self.raw, off, value)

    @property
    def magic(self) -> int:
        return self._u16(0)

    @property
    def is_pe32_plus(self) -> bool:
        return self.magic == PE32PLUS_MAGIC

    @property
    def linker_major(self) -> int:
        return self._u8(2)

    @property
    def linker_minor(self) -> int:
        return self._u8(3)

    @property
    def section_alignment(self) -> int:
        return self._u32(32)

    @property
    def file_alignment(self) -> int:
        return self._u32(36)

    @property
    def os_major(self) -> int:
        return self._u16(40)

    @property
    def os_minor(self) -> int:
        return self._u16(42)

    @property
    def size_of_image(self) -> int:
        return self._u32(56)

    @size_of_image.setter
    def size_of_image(self, value: int) -> None:
        self._put_u32(56, value)

    @property
    def checksum(self) -> int:
        return self._u32(64)

    @checksum.setter
    def checksum(self, value: int) -> None:
        self._put_u32(64, value)

    @property
    def subsystem(self) -> int:
        return self._u16(68)

    @property
    def dll_characteristics(self) -> int:
        return self._u16(70)

    @property
    def _dirs_offset(self) -> int:
        return 112 if self.is_pe32_plus else 96

    @property
    def num_data_directories(self) -> int:
        off = self._dirs_offset - 4
        if off + 4 > len(self.raw):
            return 0
        return self._u32(off)

    def data_directory(self, index: int) -> tuple[int, int]:
        """(rva, size) of directory ``index``; (0, 0) when absent."""
        if index >= self.num_data_directories:
            return (0, 0)
        off = self._dirs_offset + 8 * index
        if off + 8 > len(self.raw):
            return (0, 0)
        return (self._u32(off), self._u32(off + 4))

    def set_data_directory(self, index: int, rva: int, size: int) -> None:
        if index >= self.num_data_directories:
            raise LayoutOverflow(f"data directory {index} not present")
        off = self._dirs_offset + 8 * index
        self._put_u32(off, rva)
        self._put_u32(off + 4, size)

    def copy(self) -> "OptionalHeader":
        return OptionalHeader(bytes(self.raw))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OptionalHeader) and self.raw == other.raw


@dataclass(frozen=True)
class CoffHeader:
    machine: int
    timestamp: int
    symbol_table_offset: int
    symbol_count: int
    optional_header_size: int
    characteristics: int


@dataclass(frozen=True)
class PeImage:
    """Structured, rewritable view of one PE file.

    Treated as immutable: mutation helpers build modified copies. ``gaps``
    records byte ranges not owned by any named structure (header padding,
    inter-section slack) keyed by original file offset.
    """

    dos_header: bytes
    coff: CoffHeader
    optional: OptionalHeader
    sections: tuple[SectionEntry, ...]
    overlay: bytes
    gaps: tuple[tuple[int, bytes], ...] = field(default_factory=tuple)

    @property
    def e_lfanew(self) -> int:
        return len(self.dos_header)

    @property
    def num_sections(self) -> int:
        return len(self.sections)

    @property
    def section_table_offset(self) -> int:
        return self.e_lfanew + 4 + COFF_SIZE + self.coff.optional_header_size

    @property
    def section_table_end(self) -> int:
        return self.section_table_offset + SECTION_ENTRY_SIZE * len(self.sections)

    @property
    def overlay_offset(self) -> int:
        end = self.section_table_end
        for s in self.sections:
            end = max(end, s.file_end)
        return end


@dataclass(frozen=True)
class ValidationReport(Record):
    sha256: str
    file_size: int
    is_valid_pe: bool
    reasons: tuple[str, ...]


def parse(data: bytes) -> PeImage:
    """Parse ``data`` into a :class:`PeImage` or raise the error naming the
    first violated invariant: checks stop at the first failure that makes
    deeper structure unreadable."""
    if len(data) > MAX_FILE_SIZE:
        raise Oversize(OVERSIZE)
    if len(data) < DOS_HEADER_SIZE:
        raise Truncated(TRUNCATED)
    if data[:2] != DOS_MAGIC:
        raise BadSignature(BAD_MZ)
    e_lfanew = struct.unpack_from("<I", data, E_LFANEW_OFFSET)[0]
    if e_lfanew + 4 > len(data):
        raise Truncated(TRUNCATED)
    if e_lfanew < DOS_HEADER_SIZE:
        # PE header claimed inside the DOS header itself
        raise BadSignature(BAD_PE_SIG)
    if data[e_lfanew : e_lfanew + 4] != PE_SIGNATURE:
        raise BadSignature(BAD_PE_SIG)
    coff_off = e_lfanew + 4
    if coff_off + COFF_SIZE > len(data):
        raise Truncated(TRUNCATED)
    machine, num_sections, *coff_rest = _COFF.unpack_from(data, coff_off)
    coff = CoffHeader(machine, *coff_rest)
    opt_size = coff.optional_header_size
    opt_off = coff_off + COFF_SIZE
    if opt_off + opt_size > len(data) or opt_size < 2:
        raise Truncated(TRUNCATED)
    magic = struct.unpack_from("<H", data, opt_off)[0]
    if magic not in (PE32_MAGIC, PE32PLUS_MAGIC):
        raise BadSignature(BAD_PE_SIG)
    min_opt = 112 if magic == PE32PLUS_MAGIC else 96
    if opt_size < min_opt:
        raise Truncated(TRUNCATED)
    optional = OptionalHeader(data[opt_off : opt_off + opt_size])
    dirs_end = optional._dirs_offset + 8 * optional.num_data_directories
    if dirs_end > opt_size:
        raise Truncated(TRUNCATED)

    table_off = opt_off + opt_size
    table_end = table_off + SECTION_ENTRY_SIZE * num_sections
    if table_end > len(data):
        raise Truncated(TRUNCATED)

    sections: list[SectionEntry] = []
    for i in range(num_sections):
        row = _SECTION_ROW.unpack_from(data, table_off + i * SECTION_ENTRY_SIZE)
        rsize, roff = row[3], row[4]
        if rsize > 0 and roff > 0:
            if roff + rsize > len(data):
                raise Truncated(TRUNCATED)
            if roff < table_end:
                raise OverlappingSections(OVERLAPPING_SECTIONS)
            raw = data[roff : roff + rsize]
        elif rsize > 0:
            # nonzero size with a zero data pointer would alias the headers
            raise OverlappingSections(OVERLAPPING_SECTIONS)
        else:
            raw = b""
        sections.append(SectionEntry(*row, raw_data=raw))

    extents = sorted(
        (s.raw_offset, s.file_end) for s in sections if s.file_end > 0
    )
    for (a_start, a_end), (b_start, _) in zip(extents, extents[1:]):
        if b_start < a_end:
            raise OverlappingSections(OVERLAPPING_SECTIONS)

    overlay_start = table_end
    for s in sections:
        overlay_start = max(overlay_start, s.file_end)
    overlay = data[overlay_start:]

    # complement of all named regions below the overlay, kept for losslessness
    covered = [(0, table_end)] + [
        (s.raw_offset, s.file_end) for s in sections if s.file_end > 0
    ]
    covered.sort()
    gaps: list[tuple[int, bytes]] = []
    cursor = 0
    for start, end in covered:
        if start > cursor:
            gaps.append((cursor, data[cursor:start]))
        cursor = max(cursor, end)
    if cursor < overlay_start:
        gaps.append((cursor, data[cursor:overlay_start]))

    return PeImage(
        dos_header=data[:e_lfanew],
        coff=coff,
        optional=optional,
        sections=tuple(sections),
        overlay=overlay,
        gaps=tuple(gaps),
    )


def validate(data: bytes) -> ValidationReport:
    """Total structural check; never raises."""
    try:
        parse(data)
        reasons = ()
    except PeError as exc:
        reasons = (exc.args[0],)
    return ValidationReport(
        sha256=hashlib.sha256(data).hexdigest(),
        file_size=len(data),
        is_valid_pe=not reasons,
        reasons=reasons,
    )


def serialize(image: PeImage) -> bytes:
    """Re-serialize an image. Byte-lossless for unmodified parses; raises
    :class:`LayoutOverflow` when contents no longer fit their field widths
    or the headers reach into a section's raw data.  This is the one check
    of header growth, so a mutated image is known to fit only once it
    serializes.  A section without raw data (zero size or zero offset)
    holds no bytes and never blocks growth."""
    if len(image.sections) > U16_MAX:
        raise LayoutOverflow("section count exceeds u16")
    if image.e_lfanew > U32_MAX:
        raise LayoutOverflow("DOS region exceeds u32 e_lfanew")
    for s in image.sections:
        if s.raw_size > U32_MAX or len(s.raw_data) > U32_MAX:
            raise LayoutOverflow(f"section {s.display_name!r} raw size exceeds u32")
        if s.raw_offset > U32_MAX:
            raise LayoutOverflow(f"section {s.display_name!r} raw offset exceeds u32")
        if s.raw_offset > 0 and s.raw_size != len(s.raw_data):
            raise LayoutOverflow(
                f"section {s.display_name!r} raw_size disagrees with data length"
            )

    declared_lfanew = struct.unpack_from("<I", image.dos_header, E_LFANEW_OFFSET)[0]
    if declared_lfanew != image.e_lfanew:
        raise LayoutOverflow("embedded e_lfanew disagrees with DOS region length")

    table_end = image.section_table_end
    total = image.overlay_offset + len(image.overlay)
    for off, blob in image.gaps:
        total = max(total, off + len(blob))
    if total > MAX_FILE_SIZE:
        raise LayoutOverflow("serialized file exceeds maximum size")

    buf = bytearray(total)
    # gaps first: structural regions win wherever a mutated layout collides
    for off, blob in image.gaps:
        buf[off : off + len(blob)] = blob

    buf[0 : image.e_lfanew] = image.dos_header
    off = image.e_lfanew
    buf[off : off + 4] = PE_SIGNATURE
    c = image.coff
    _COFF.pack_into(buf, off + 4, c.machine, len(image.sections), c.timestamp,
                    c.symbol_table_offset, c.symbol_count,
                    c.optional_header_size, c.characteristics)
    opt_off = off + 4 + COFF_SIZE
    if len(image.optional.raw) != image.coff.optional_header_size:
        raise LayoutOverflow("optional header length disagrees with COFF field")
    buf[opt_off : opt_off + len(image.optional.raw)] = image.optional.raw
    for i, s in enumerate(image.sections):
        entry_off = opt_off + len(image.optional.raw) + i * SECTION_ENTRY_SIZE
        buf[entry_off : entry_off + SECTION_ENTRY_SIZE] = s.pack_header()
        if s.file_end > 0:
            if s.raw_offset < table_end:
                raise LayoutOverflow(
                    f"section {s.display_name!r} data overlaps headers"
                )
            buf[s.raw_offset : s.file_end] = s.raw_data
    if image.overlay:
        ov = image.overlay_offset
        buf[ov : ov + len(image.overlay)] = image.overlay
    return bytes(buf)
